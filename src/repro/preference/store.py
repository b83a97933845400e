"""Pre-computed user-entity preference index (the daily offline product).

The online stage must answer "top-K users by average preference over
these entities" in milliseconds, so the daily job pre-computes one row per
user — the embedding ``r_u`` (Eq. 7) and the user's sparse interaction
frequencies ``freq_u(e)`` — and :class:`PreferenceStore` serves them.

Rows live in ``P >= 1`` user partitions (hash :func:`shard_of`). One
partition is the default; ``P > 1`` runs the same code once per partition
and merges the per-partition top-K under the canonical order (descending
score, ties by ascending user id). Every answer is byte-identical for
every ``P``.

One scoring kernel: the request's combine weights are folded into the
entity side once (``q = E_unionᵀ · combine``), each partition scores
``U_p · q`` and adds the direct-interaction term from its CSR rows — work
proportional to the rows and their non-zeros, never to
``users × |union|``.

One on-disk layout (format :data:`PREF_FORMAT`), holding exactly the
arrays the kernel reads::

    <directory>/entity_embeddings.npy
    <directory>/shard-NN/{user_ids,user_matrix,covered,row_ptr,col_idx,values}.npy
    <directory>/meta.json        per-array SHA-256; written last (commit point)

:meth:`PreferenceStore.load_memmap` maps every array read-only, so a
generation swap remaps pages instead of copying matrices, and
:meth:`PreferenceStore.release_pages` lets a retired generation's pages go
without closing its mapping.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError, CorruptArtifactError, NotFittedError, StorageError
from repro.obs.context import phase
from repro.obs.profile import record_mmap_open
from repro.preference.user_embedding import user_embedding, user_embedding_matrix
from repro.resilience import atomic_write_array, atomic_write_text, file_digest
from repro.text.sequence_extractor import UserEntitySequence

#: On-disk format identifier of the preference artifact directory.
PREF_FORMAT = "pref-mm-v2"

#: Per-partition arrays (file order) and the dtype the kernel reads them as.
_PARTITION_ARRAYS = (
    ("user_ids", np.int64),
    ("user_matrix", np.float64),
    ("covered", np.bool_),
    ("row_ptr", np.int64),
    ("col_idx", np.int64),
    ("values", np.float64),
)


#: splitmix64 finalizer constants — fixed forever; changing them would
#: silently re-route every user and orphan published partition layouts.
_MIX_0 = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def shard_of(user_ids, n_shards: int):
    """Owning partition of each user id — the stable hash partitioner.

    Vectorized splitmix64 finalizer over the raw id, reduced modulo
    ``n_shards``. Pure arithmetic on fixed constants: the mapping depends
    only on ``(user_id, n_shards)``, never on process, platform, or
    insertion order, which is what lets ``meta.json`` pin routing by
    recording ``n_shards`` alone.

    Accepts a scalar or an array; returns ``int`` or an int64 array.
    """
    if n_shards < 1:
        raise StorageError("n_shards must be >= 1")
    scalar = np.isscalar(user_ids) or getattr(user_ids, "ndim", 1) == 0
    ids = np.atleast_1d(np.asarray(user_ids, dtype=np.uint64))
    if n_shards == 1:
        out = np.zeros(len(ids), dtype=np.int64)
    else:
        with np.errstate(over="ignore"):
            x = ids + _MIX_0
            x = (x ^ (x >> np.uint64(30))) * _MIX_1
            x = (x ^ (x >> np.uint64(27))) * _MIX_2
            x = x ^ (x >> np.uint64(31))
            out = (x % np.uint64(n_shards)).astype(np.int64)
    return int(out[0]) if scalar else out


@dataclass
class UserScore:
    user_id: int
    score: float


def _select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores in **canonical order**.

    Descending score, ties broken by ascending index (= ascending user
    id, because partition rows are sorted by user id). A per-partition
    top-k under this total order, merged under the same order, selects
    exactly the users a single ranking of all rows would.
    """
    n = len(scores)
    if k >= n:
        return np.argsort(-scores, kind="stable")[:k]
    boundary = scores[np.argpartition(-scores, k - 1)[k - 1]]
    strict = np.flatnonzero(scores > boundary)
    ties = np.flatnonzero(scores == boundary)
    chosen = np.concatenate([strict, ties[: k - len(strict)]])
    return chosen[np.argsort(-scores[chosen], kind="stable")]


def _union_ids(entity_sets: list[list[int]]) -> np.ndarray:
    """Sorted union of all requested entity ids."""
    return np.asarray(
        sorted({int(e) for ids in entity_sets for e in ids}), dtype=np.int64
    )


def _combine_matrix(
    entity_sets: list[list[int]],
    weights: list | None,
    union_ids: np.ndarray,
) -> np.ndarray:
    """(union, sets) combine matrix: column i holds set i's normalised
    per-entity weights (uniform 1/n for unweighted sets; duplicate entities
    accumulate, matching a mean over duplicate columns)."""
    column = {int(e): i for i, e in enumerate(union_ids)}
    combine = np.zeros((len(union_ids), len(entity_sets)))
    for i, ids in enumerate(entity_sets):
        w = None if weights is None else weights[i]
        if w is None:
            w = np.full(len(ids), 1.0 / len(ids))
        else:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (len(ids),):
                raise ConfigError("weights must align with entity_ids")
            w = w / max(w.sum(), 1e-12)
        cols = np.asarray([column[int(e)] for e in ids], dtype=np.int64)
        np.add.at(combine[:, i], cols, w)
    return combine


def _row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` with each row reduced on its own, in one fixed
    order. BLAS picks its blocking from the matrix shape, so ``@`` can
    round the same row differently in different partitionings (and equal
    rows differently within one); ``einsum`` cannot, which is what keeps
    answers byte-identical across partition counts and exact ties exact.
    """
    return np.einsum("ud,d->u", matrix, vector)


@dataclass
class _Partition:
    """One partition's users; rows ascending by global user id.

    The direct-interaction term is CSR over the rows:
    ``values[row_ptr[i]:row_ptr[i + 1]]`` are user ``user_ids[i]``'s
    interaction frequencies with entities ``col_idx[...]`` (ascending).
    """

    user_ids: np.ndarray  # (users_p,) int64
    user_matrix: np.ndarray  # (users_p, dim) float64
    covered: np.ndarray  # (users_p,) bool
    row_ptr: np.ndarray  # (users_p + 1,) int64
    col_idx: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64

    def take(self, rows: np.ndarray) -> "_Partition":
        """The partition holding ``rows`` (local indices) in that order."""
        starts = self.row_ptr[rows]
        counts = self.row_ptr[rows + 1] - starts
        row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        entries = np.repeat(starts - row_ptr[:-1], counts) + np.arange(row_ptr[-1])
        return _Partition(
            self.user_ids[rows],
            np.ascontiguousarray(self.user_matrix[rows]),
            self.covered[rows],
            row_ptr,
            self.col_idx[entries],
            self.values[entries],
        )


def _interaction_rows(
    sequences: dict[int, UserEntitySequence], num_users: int, num_entities: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(row_ptr, col_idx, values)`` of ``freq_u(e)`` = share of
    user ``u``'s sequence spent on entity ``e``."""
    active = [(u, seq.entity_ids) for u, seq in sequences.items() if len(seq)]
    lengths = np.zeros(num_users, dtype=np.int64)
    if active:
        users = np.asarray([u for u, _ in active], dtype=np.int64)
        lengths[users] = [len(ids) for _, ids in active]
        events = np.concatenate([np.asarray(ids, dtype=np.int64) for _, ids in active])
        keys, counts = np.unique(
            np.repeat(users, lengths[users]) * num_entities + events,
            return_counts=True,
        )
    else:
        keys = counts = np.zeros(0, dtype=np.int64)
    rows, cols = np.divmod(keys, num_entities)
    row_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=num_users))]
    ).astype(np.int64)
    return row_ptr, cols, counts / lengths[rows]


class PreferenceStore:
    """Partitioned user rows + the top-K-by-average-preference kernel."""

    def __init__(
        self,
        entity_embeddings: np.ndarray,
        normalize: bool = True,
        direct_weight: float = 25.0,
        version_tag: str | None = None,
    ) -> None:
        if direct_weight < 0:
            raise ConfigError("direct_weight must be >= 0")
        embeddings = np.asarray(entity_embeddings, dtype=np.float64)
        if normalize:
            # Unit-normalise h_e so popular entities' larger norms do not
            # dominate every user's preference ranking.
            norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
            embeddings = embeddings / np.maximum(norms, 1e-12)
        self.entity_embeddings = embeddings
        #: Preference blends two signals: the embedding dot (Eq. 7 —
        #: generalises to entities the user never touched) and the user's
        #: direct interaction frequency with the entity (exact preference
        #: evidence). ``direct_weight`` scales the latter.
        self.direct_weight = direct_weight
        #: Artifact identity: set by the daily producer (e.g. ``daily-3``)
        #: and reported by the serving runtime's health endpoint.
        self.version_tag = version_tag
        #: How the backing arrays are held: ``"memory"`` (freshly built)
        #: or ``"memmap"`` (zero-copy mapped pages of a published
        #: artifact). Reported by the serving runtime.
        self.storage = "memory"
        self.num_users = 0
        self._parts: list[_Partition] = []

    def _adopt(self, parts: list[_Partition], num_users: int) -> "PreferenceStore":
        self._parts = parts
        self.num_users = int(num_users)
        return self

    @property
    def n_shards(self) -> int:
        return max(1, len(self._parts))

    # ------------------------------------------------------------------
    def build(
        self,
        sequences: dict[int, UserEntitySequence],
        num_users: int,
    ) -> "PreferenceStore":
        """The daily refresh: recompute every user's row (one partition)."""
        user_matrix, covered = user_embedding_matrix(
            self.entity_embeddings, sequences, num_users
        )
        row_ptr, col_idx, values = _interaction_rows(
            sequences, num_users, len(self.entity_embeddings)
        )
        self.storage = "memory"
        return self._adopt(
            [
                _Partition(
                    np.arange(num_users, dtype=np.int64),
                    user_matrix, covered, row_ptr, col_idx, values,
                )
            ],
            num_users,
        )

    def partitioned(self, n_shards: int) -> "PreferenceStore":
        """The same rows split into ``n_shards`` hash partitions."""
        self._require_built()
        if n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        parts = self._parts
        if n_shards != len(parts):
            rows = self._all_rows()
            owner = shard_of(rows.user_ids, n_shards)
            parts = [rows.take(np.flatnonzero(owner == s)) for s in range(n_shards)]
        out = PreferenceStore(
            self.entity_embeddings,
            normalize=False,
            direct_weight=self.direct_weight,
            version_tag=self.version_tag,
        )
        out.storage = self.storage if parts is self._parts else "memory"
        return out._adopt(parts, self.num_users)

    def update_user(self, sequence: UserEntitySequence) -> None:
        """Incremental daily refresh of a single user, in place.

        Cheaper than a full :meth:`build` when only a few users had new
        behavior. Needs a freshly built (in-memory) store: a published
        artifact is immutable.
        """
        self._require_built()
        if self.storage != "memory":
            raise ConfigError("a memmap-backed store is immutable; rebuild to update")
        user_id = sequence.user_id
        if not 0 <= user_id < self.num_users:
            raise ConfigError(f"user {user_id} out of range")
        embedding = user_embedding(self.entity_embeddings, sequence) if len(sequence) else 0.0
        cols, counts = np.unique(
            np.asarray(sequence.entity_ids, dtype=np.int64), return_counts=True
        )
        values = counts / max(len(sequence), 1)
        part = self._parts[shard_of(user_id, len(self._parts))]
        row = int(np.searchsorted(part.user_ids, user_id))
        part.covered[row] = len(sequence) > 0
        part.user_matrix[row] = embedding
        start, end = part.row_ptr[row], part.row_ptr[row + 1]
        part.col_idx = np.concatenate([part.col_idx[:start], cols, part.col_idx[end:]])
        part.values = np.concatenate([part.values[:start], values, part.values[end:]])
        part.row_ptr[row + 1 :] += len(cols) - (end - start)

    def _require_built(self) -> None:
        if not self._parts:
            raise NotFittedError("PreferenceStore.build has not been called")

    def _all_rows(self) -> _Partition:
        """Every user's row as one partition in user-id order (the
        partition itself at ``P = 1``; an assembled copy above)."""
        self._require_built()
        if len(self._parts) == 1:
            return self._parts[0]
        lengths = np.concatenate([np.diff(p.row_ptr) for p in self._parts])
        stacked = _Partition(
            *(
                np.concatenate([getattr(p, name) for p in self._parts])
                for name in ("user_ids", "user_matrix", "covered")
            ),
            np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            np.concatenate([p.col_idx for p in self._parts]),
            np.concatenate([p.values for p in self._parts]),
        )
        return stacked.take(np.argsort(stacked.user_ids, kind="stable"))

    @property
    def user_matrix(self) -> np.ndarray:
        return self._all_rows().user_matrix

    @property
    def covered_users(self) -> np.ndarray:
        return self._all_rows().covered

    # ------------------------------------------------------------------
    def score_entity(self, entity_id: int) -> np.ndarray:
        """All users' preference scores for one entity (uncovered = -inf)."""
        self._require_built()
        out = np.full(self.num_users, -np.inf)
        embedding = self.entity_embeddings[entity_id]
        for part in self._parts:
            scores = _row_dots(part.user_matrix, embedding)
            if self.direct_weight:
                # The entity's column, read straight from the CSR rows
                # (at most one entry per row).
                hits = np.flatnonzero(part.col_idx == entity_id)
                rows = np.searchsorted(part.row_ptr, hits, side="right") - 1
                scores[rows] += self.direct_weight * part.values[hits]
            out[part.user_ids] = np.where(part.covered, scores, -np.inf)
        return out

    def top_users_for_entity(self, entity_id: int, k: int) -> list[UserScore]:
        """Head of one entity's user ranking."""
        return self.top_users_for_entity_sets([[int(entity_id)]], k)[0]

    def top_users_for_entities(
        self,
        entity_ids: list[int],
        k: int,
        weights: np.ndarray | None = None,
    ) -> list[UserScore]:
        """Top-K users by *average* preference over the chosen entities.

        This is the paper's final selection rule: "EGL System only keeps
        top K users with the highest average similarities". ``weights``
        (e.g. expansion relevance scores) turn the plain average into a
        relevance-weighted one.
        """
        self._require_built()
        if not entity_ids:
            raise ConfigError("need at least one entity to target users")
        # One set through the batched kernel: sequential and batch serving
        # share one float pipeline.
        return self.top_users_for_entity_sets(
            [list(entity_ids)], k, None if weights is None else [weights]
        )[0]

    def _score_partition(self, task):
        """Score one partition against the precombined queries; return its
        per-set top-K as ``(user ids, scores)`` pairs."""
        index, queries, slot_of, combine, k_eff = task
        part = self._parts[index]
        users = len(part.user_ids)
        scores = np.stack([_row_dots(part.user_matrix, query) for query in queries])
        if self.direct_weight:
            # Direct-preference term from the CSR rows whose entity is in
            # the request's union: O(nnz), summed per row in CSR order.
            slots = slot_of[part.col_idx]
            hits = np.flatnonzero(slots >= 0)
            rows = np.searchsorted(part.row_ptr, hits, side="right") - 1
            shares = part.values[hits, None] * combine[slots[hits]]
            for i, out in enumerate(scores):
                out += self.direct_weight * np.bincount(
                    rows, weights=shares[:, i], minlength=users
                )
        scores = np.where(part.covered, scores, -np.inf)
        k_local = min(k_eff, users)
        top = []
        for row in scores:
            chosen = _select_top_k(row, k_local)
            top.append((part.user_ids[chosen], row[chosen]))
        return index, top

    def top_users_for_entity_sets(
        self,
        entity_sets: list[list[int]],
        k: int,
        weights: list[list[float] | None] | None = None,
    ) -> list[list[UserScore]]:
        """Batched :meth:`top_users_for_entities` over many entity sets.

        The combine weights of every set are folded into the entity side
        once, each partition scores all sets against its rows and keeps a
        per-set top-K, and the coordinator merges those under the
        canonical order. This is how the runtime serves a burst of
        targeting requests (or one request per expansion seed).
        """
        self._require_built()
        if not entity_sets:
            return []
        if any(not ids for ids in entity_sets):
            raise ConfigError("need at least one entity to target users")
        if weights is not None and len(weights) != len(entity_sets):
            raise ConfigError("weights must align with entity_sets")
        with phase("preference.topk"):
            with phase("combine"):
                union_ids = _union_ids(entity_sets)
                combine = _combine_matrix(entity_sets, weights, union_ids)
                # (sets, dim), one contiguous query per set.
                queries = np.ascontiguousarray(
                    (self.entity_embeddings[union_ids].T @ combine).T
                )
                # entity id -> combine row (or -1), so partitions map their
                # CSR columns into the union without a dense gather.
                slot_of = np.full(len(self.entity_embeddings), -1, dtype=np.int64)
                slot_of[union_ids] = np.arange(len(union_ids))
                k_eff = min(k, self._covered_count())
                if k_eff < 1:
                    return [[] for _ in entity_sets]
            with phase("shard_scores"):
                tasks = [
                    (s, queries, slot_of, combine, k_eff)
                    for s in range(len(self._parts))
                ]
                results = []
                for task in tasks:
                    with phase(f"shard{task[0]:02d}"):
                        results.append(self._score_partition(task))
            with phase("merge"):
                merged: list[list[UserScore]] = []
                for i in range(len(entity_sets)):
                    user_ids = np.concatenate([top[i][0] for _, top in results])
                    scores = np.concatenate([top[i][1] for _, top in results])
                    finite = np.isfinite(scores)
                    user_ids, scores = user_ids[finite], scores[finite]
                    order = np.lexsort((user_ids, -scores))[:k_eff]
                    merged.append(
                        [
                            UserScore(u, s)
                            for u, s in zip(
                                user_ids[order].tolist(), scores[order].tolist()
                            )
                        ]
                    )
                return merged

    def _covered_count(self) -> int:
        return sum(int(part.covered.sum()) for part in self._parts)

    def release_pages(self) -> None:
        """Give up the resident pages of a mapped store; keep the mapping.

        The serving runtime calls this when the generation leaves service.
        ``MADV_DONTNEED`` drops the pages this process faulted in while the
        mapping stays valid: an in-flight reader or a later rollback faults
        them back in from the page cache, with the same bytes. A
        ``"memory"`` store has nothing mapped and is left as it is.
        """
        if self.storage != "memmap":
            return
        for array in (
            self.entity_embeddings,
            *(getattr(part, name) for part in self._parts for name, _ in _PARTITION_ARRAYS),
        ):
            # np.load(mmap_mode=...) returns a np.memmap whose base is the
            # mmap.mmap; a view of it (entity_embeddings) adds one link.
            while not isinstance(array, mmap.mmap):
                array = array.base
            array.madvise(mmap.MADV_DONTNEED)

    # ------------------------------------------------------------------
    # Artifact serialization (daily producer → serving runtime handoff)
    # ------------------------------------------------------------------
    def save_memmap(self, directory: str | Path) -> Path:
        """Persist the built index as a memmap-able artifact directory.

        Each array is a raw ``.npy`` streamed from its own buffer through
        the atomic temp + fsync + rename path (no in-memory serialised
        copy); ``meta.json`` (with per-file SHA-256) lands last as the
        commit point — a crash mid-write leaves no readable (hence no
        servable) artifact.
        """
        self._require_built()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        checksums: dict = {
            "entity_embeddings": atomic_write_array(
                directory / "entity_embeddings.npy", self.entity_embeddings
            ),
            "shards": [],
        }
        for s, part in enumerate(self._parts):
            shard_dir = directory / f"shard-{s:02d}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            checksums["shards"].append(
                {
                    name: atomic_write_array(
                        shard_dir / f"{name}.npy", getattr(part, name)
                    )
                    for name, _ in _PARTITION_ARRAYS
                }
            )
        meta = {
            "format": PREF_FORMAT,
            "n_shards": len(self._parts),
            "num_users": self.num_users,
            "direct_weight": self.direct_weight,
            "version_tag": self.version_tag,
            "checksums": checksums,
        }
        atomic_write_text(
            directory / "meta.json", json.dumps(meta, indent=2, sort_keys=True)
        )
        return directory

    @classmethod
    def load_memmap(cls, directory: str | Path, verify: bool = False) -> "PreferenceStore":
        """Open a :meth:`save_memmap` artifact, memory-mapped read-only.

        ``verify=True`` proves every array file against the manifest
        checksums (publish/startup validation) and refuses an array the
        manifest has no checksum for; the default open trusts
        previously-validated bytes and only checks dtypes and that the
        array lengths agree, so activation stays O(1) in matrix size.
        Every partition must open or none serves.
        """
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise StorageError(f"preference artifact missing: {meta_path}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise CorruptArtifactError(
                f"preference artifact manifest unreadable: {meta_path}"
            ) from error
        if not isinstance(meta, dict) or meta.get("format") != PREF_FORMAT:
            raise CorruptArtifactError(
                f"preference artifact {directory} is not format {PREF_FORMAT!r}"
            )

        def open_array(path: Path, recorded, dtype) -> np.ndarray:
            if not path.exists():
                raise CorruptArtifactError(f"preference artifact missing array {path}")
            if verify and (not recorded or file_digest(path) != recorded):
                raise CorruptArtifactError(
                    f"preference artifact checksum missing or mismatched for {path}"
                )
            try:
                array = np.load(path, mmap_mode="r")
            except (ValueError, OSError) as error:
                raise CorruptArtifactError(
                    f"preference artifact array unreadable: {path}"
                ) from error
            record_mmap_open("preferences")
            if array.dtype != dtype:
                raise CorruptArtifactError(
                    f"preference artifact {path} has dtype {array.dtype}, "
                    f"expected {np.dtype(dtype)}"
                )
            return array

        try:
            n_shards = int(meta["n_shards"])
            checksums = meta.get("checksums") or {}
            shard_sums = checksums.get("shards") or [{}] * n_shards
            store = cls(
                open_array(
                    directory / "entity_embeddings.npy",
                    checksums.get("entity_embeddings"),
                    np.float64,
                ),
                # Embeddings were already normalised (or deliberately not)
                # before saving; do not renormalise on load.
                normalize=False,
                direct_weight=float(meta["direct_weight"]),
                version_tag=meta["version_tag"],
            )
            parts = [
                _Partition(
                    *(
                        open_array(
                            directory / f"shard-{s:02d}" / f"{name}.npy",
                            shard_sums[s].get(name),
                            dtype,
                        )
                        for name, dtype in _PARTITION_ARRAYS
                    )
                )
                for s in range(n_shards)
            ]
            num_users = int(meta["num_users"])
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as error:
            raise CorruptArtifactError(
                f"preference artifact manifest malformed: {meta_path}"
            ) from error
        _check_shapes(directory, store.entity_embeddings, parts, num_users)
        store.storage = "memmap"
        return store._adopt(parts, num_users)

    @classmethod
    def validate_memmap(cls, directory: str | Path) -> bool:
        """Full checksum proof of every array of the artifact."""
        cls.load_memmap(directory, verify=True)
        return True


def _check_shapes(
    directory: Path, embeddings: np.ndarray, parts: list[_Partition], num_users: int
) -> None:
    """Cheap structural proof of an opened artifact: a truncated or
    swapped array must not reach the kernel as an out-of-bounds read."""

    def require(condition: bool, what: str) -> None:
        if not condition:
            raise CorruptArtifactError(f"preference artifact {directory}: {what}")

    require(embeddings.ndim == 2, "entity_embeddings is not a matrix")
    require(len(parts) >= 1, "no partitions")
    for s, part in enumerate(parts):
        require(part.user_ids.ndim == 1, f"shard {s} user_ids is not a vector")
        users = len(part.user_ids)
        require(
            part.user_matrix.shape == (users, embeddings.shape[1]),
            f"shard {s} user_matrix does not match its user_ids and the embedding width",
        )
        require(
            part.covered.shape == (users,) and part.row_ptr.shape == (users + 1,),
            f"shard {s} covered/row_ptr do not match its user_ids",
        )
        require(
            part.col_idx.shape == part.values.shape == (int(part.row_ptr[-1]),),
            f"shard {s} CSR arrays disagree on the entry count",
        )
    require(
        np.array_equal(
            np.sort(np.concatenate([p.user_ids for p in parts])), np.arange(num_users)
        ),
        f"partitions do not hold each of {num_users} users exactly once",
    )
