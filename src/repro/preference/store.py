"""Pre-computed user-entity preference index (the daily offline product).

The online stage must answer "top-K users by average preference over
these entities" in milliseconds, so the daily job pre-computes one row per
covered user (a user with behaviour in the window) — the embedding ``r_u``
(Eq. 7) — and each entity's sparse interaction frequencies ``freq_u(e)``,
and :class:`PreferenceStore` serves them. Row ``r`` is user
``user_ids[r]``; ``user_ids`` ascends, so ascending row order is ascending
user id. A user with no row is never scored and never returned.

One scoring kernel: the request's combine weights are folded into the
entity side once (``q = E_unionᵀ · combine``), the kernel scores
``U · q`` over the covered rows and adds the direct-interaction term from
the postings of the requested entities only — work proportional to the
covered rows and those postings, never to ``users × |union|`` or to every
interaction. Answers come in the canonical order: descending score, ties by
ascending user id.

One on-disk layout (format :data:`PREF_FORMAT`), holding exactly the
arrays the kernel reads, in the orientation it reads them::

    <directory>/entity_embeddings.npy
    <directory>/{user_ids,user_matrix,entity_ptr,user_rows,values}.npy
    <directory>/meta.json        per-array SHA-256; written last (commit point)

:meth:`PreferenceStore.load_memmap` is the proof of that layout: it reads
each array once into process memory, checks its SHA-256 against
``meta.json`` from that buffer and serves it read-only. A generation owns
its bytes from then on, and leaves memory when its last reference drops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError, CorruptArtifactError, NotFittedError, StorageError
from repro.obs.context import phase
from repro.preference.user_embedding import user_embedding_matrix
from repro.resilience import atomic_write_array, atomic_write_text, read_proven_array
from repro.text.user_sequence import UserEntitySequence

#: On-disk format identifier of the preference artifact directory.
PREF_FORMAT = "pref-mm-v4"

#: The index arrays besides ``entity_embeddings``: file stem (= store
#: attribute) and the dtype the kernel reads.
_INDEX_ARRAYS = (
    ("user_ids", np.int64),
    ("user_matrix", np.float64),
    ("entity_ptr", np.int64),
    ("user_rows", np.int64),
    ("values", np.float64),
)


@dataclass
class UserScore:
    user_id: int
    score: float


def _select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores in **canonical order**.

    Descending score, ties broken by ascending index (= ascending user
    id, because ``user_ids`` ascends).
    """
    n = len(scores)
    if k >= n:
        return np.argsort(-scores, kind="stable")[:k]
    boundary = scores[np.argpartition(-scores, k - 1)[k - 1]]
    strict = np.flatnonzero(scores > boundary)
    ties = np.flatnonzero(scores == boundary)
    chosen = np.concatenate([strict, ties[: k - len(strict)]])
    return chosen[np.argsort(-scores[chosen], kind="stable")]


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the at most ``k`` best *finite* scores, canonical order:
    one served top-K from one row of scores (``k`` already capped at the
    covered-user count)."""
    if k < 1:
        return np.zeros(0, dtype=np.int64)
    chosen = _select_top_k(scores, k)
    return chosen[np.isfinite(scores[chosen])]


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
    order. BLAS picks its blocking from the matrix shape and a row's
    position in it, so ``@`` can round two equal rows differently;
    ``einsum`` cannot, which is what keeps exact ties exact (and the
    canonical tie order meaningful) within one matrix.
    """
    return np.einsum("ud,d->u", matrix, vector)


def _interaction_rows(
    sequences: dict[int, UserEntitySequence], user_ids: np.ndarray, num_entities: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Postings ``(entity_ptr, user_rows, values)`` of ``freq_u(e)`` = share
    of user ``u``'s sequence spent on entity ``e``, by entity: entity
    ``e``'s are ``entity_ptr[e]:entity_ptr[e + 1]``, rows ascending."""
    ids = [sequences[u].entity_ids for u in user_ids.tolist()]
    lengths = np.asarray([len(seq) for seq in ids], dtype=np.int64)
    rows = max(len(ids), 1)
    if ids:
        events = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in ids])
        keys, counts = np.unique(
            events * rows + np.repeat(np.arange(len(ids)), lengths),
            return_counts=True,
        )
    else:
        keys = counts = np.zeros(0, dtype=np.int64)
    entities, user_rows = np.divmod(keys, rows)
    entity_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(entities, minlength=num_entities))]
    ).astype(np.int64)
    return entity_ptr, user_rows, counts / lengths[user_rows]


class PreferenceStore:
    """One row per covered user + the top-K-by-average-preference kernel.

    Row ``r`` of ``user_matrix`` is user ``user_ids[r]``. The
    direct-interaction term is stored by entity:
    ``values[entity_ptr[e]:entity_ptr[e + 1]]`` are entity ``e``'s
    interaction frequencies with the users of rows ``user_rows[...]``
    (ascending).
    """

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
        #: Users the store holds a row for (the covered users).
        self.num_users = 0
        self.user_ids: np.ndarray | None = None  # (rows,) int64, ascending
        self.user_matrix: np.ndarray | None = None  # (rows, dim) float64
        self.entity_ptr: np.ndarray | None = None  # (entities + 1,) int64
        self.user_rows: np.ndarray | None = None  # (nnz,) int64
        self.values: np.ndarray | None = None  # (nnz,) float64

    def _adopt(self, arrays: dict[str, np.ndarray]) -> "PreferenceStore":
        for name, _ in _INDEX_ARRAYS:
            setattr(self, name, arrays[name])
        self.num_users = len(self.user_ids)
        return self

    # ------------------------------------------------------------------
    def build(
        self,
        sequences: dict[int, UserEntitySequence],
        num_users: int,
    ) -> "PreferenceStore":
        """The daily refresh: recompute every covered user's row."""
        user_matrix, covered = user_embedding_matrix(
            self.entity_embeddings, sequences, num_users
        )
        user_ids = np.flatnonzero(covered).astype(np.int64)
        entity_ptr, user_rows, values = _interaction_rows(
            sequences, user_ids, len(self.entity_embeddings)
        )
        return self._adopt(
            {
                "user_ids": user_ids,
                "user_matrix": user_matrix[user_ids],
                "entity_ptr": entity_ptr,
                "user_rows": user_rows,
                "values": values,
            }
        )

    def _require_built(self) -> None:
        if self.user_matrix is None:
            raise NotFittedError("PreferenceStore.build has not been called")

    # ------------------------------------------------------------------
    def _postings(self, entity_ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(user_rows, values)`` of each entity's interactions."""
        starts = self.entity_ptr[entity_ids].tolist()
        ends = self.entity_ptr[entity_ids + 1].tolist()
        rows, values = self.user_rows, self.values
        return [(rows[start:end], values[start:end]) for start, end in zip(starts, ends)]

    def score_entities(self, entity_ids: list[int]) -> np.ndarray:
        """Every row's preference score for each entity: one row of scores
        per id, whose column ``r`` is user ``user_ids[r]``.

        Each row is reduced on its own (:func:`_row_dots`), so every score
        has the bits :meth:`top_users_for_entity` gives it.
        """
        self._require_built()
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        queries = self.entity_embeddings[entity_ids]
        scores = np.empty((len(queries), self.num_users))
        for out, query in zip(scores, queries):
            out[:] = _row_dots(self.user_matrix, query)
        if self.direct_weight:
            for out, (rows, values) in zip(scores, self._postings(entity_ids)):
                out[rows] += self.direct_weight * values
        return scores

    def top_user_ids(self, scores: np.ndarray, k: int) -> np.ndarray:
        """The user ids :meth:`top_users_for_entity` returns, taken from
        that entity's row of :meth:`score_entities`."""
        return self.user_ids[_top_k_rows(scores, min(k, self.num_users))]

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

    def top_users_for_entity_sets(
        self,
        entity_sets: list[list[int]],
        k: int,
        weights: list[list[float] | None] | None = None,
    ) -> list[list[UserScore]]:
        """Batched :meth:`top_users_for_entities` over many entity sets.

        The combine weights of every set are folded into the entity side
        once, and every set is scored against the covered rows and keeps
        its top-K in the canonical order. This is how the runtime serves a
        burst of targeting requests (or one request per expansion seed).
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
                k_eff = min(k, self.num_users)
                if k_eff < 1:
                    return [[] for _ in entity_sets]
                postings = self._postings(union_ids)
            answers: list[list[UserScore]] = []
            for i, query in enumerate(queries):
                scores = _row_dots(self.user_matrix, query)
                if self.direct_weight:
                    # Direct-preference term from the postings of the
                    # set's entities only, added into each row in ascending
                    # entity id from 0.0. A zero share would add +0.0,
                    # which changes no such sum, so it is skipped.
                    direct = np.zeros(self.num_users)
                    for slot in np.flatnonzero(combine[:, i]).tolist():
                        rows, values = postings[slot]
                        direct[rows] += values * combine[slot, i]
                    scores += self.direct_weight * direct
                chosen = _top_k_rows(scores, k_eff)
                answers.append(
                    [
                        UserScore(u, s)
                        for u, s in zip(
                            self.user_ids[chosen].tolist(), scores[chosen].tolist()
                        )
                    ]
                )
            return answers

    # ------------------------------------------------------------------
    # Artifact serialization (daily producer → serving runtime handoff)
    # ------------------------------------------------------------------
    def save_memmap(self, directory: str | Path) -> Path:
        """Persist the built index as a ``pref-mm-v4`` artifact directory.

        Each array is a raw ``.npy`` streamed from its own buffer through
        the atomic temp + fsync + rename path (no in-memory serialised
        copy); ``meta.json`` (with per-file SHA-256) lands last as the
        commit point — a crash mid-write leaves no readable (hence no
        servable) artifact.
        """
        self._require_built()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        checksums = {
            "entity_embeddings": atomic_write_array(
                directory / "entity_embeddings.npy", self.entity_embeddings
            )
        }
        for name, _ in _INDEX_ARRAYS:
            checksums[name] = atomic_write_array(
                directory / f"{name}.npy", getattr(self, name)
            )
        meta = {
            "format": PREF_FORMAT,
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
    def load_memmap(cls, directory: str | Path) -> "PreferenceStore":
        """Open a :meth:`save_memmap` artifact: every array proven and held
        in memory.

        Each array is read once and its SHA-256 checked against the
        manifest from the buffer it is served from; an array with no
        recorded checksum, a mismatch, a wrong dtype or arrays that do not
        fit together raise :class:`~repro.errors.CorruptArtifactError`.
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
            found = meta.get("format") if isinstance(meta, dict) else None
            raise CorruptArtifactError(
                f"preference artifact {directory} is format {found!r}, "
                f"not {PREF_FORMAT!r}"
            )

        def open_array(name: str, dtype) -> np.ndarray:
            path = directory / f"{name}.npy"
            array = read_proven_array(path, checksums.get(name))
            if array.dtype != dtype:
                raise CorruptArtifactError(
                    f"preference artifact {path} has dtype {array.dtype}, "
                    f"expected {np.dtype(dtype)}"
                )
            return array

        try:
            checksums = meta.get("checksums") or {}
            store = cls(
                open_array("entity_embeddings", np.float64),
                # Embeddings were already normalised (or deliberately not)
                # before saving; do not renormalise on load.
                normalize=False,
                direct_weight=float(meta["direct_weight"]),
                version_tag=meta["version_tag"],
            )
            arrays = {name: open_array(name, dtype) for name, dtype in _INDEX_ARRAYS}
            num_users = int(meta["num_users"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CorruptArtifactError(
                f"preference artifact manifest malformed: {meta_path}"
            ) from error
        _check_shapes(directory, store.entity_embeddings, arrays, num_users)
        return store._adopt(arrays)


def _check_shapes(
    directory: Path, embeddings: np.ndarray, arrays: dict[str, np.ndarray], num_users: int
) -> None:
    """Cheap structural proof of an opened artifact: a truncated or
    swapped array must not reach the kernel as an out-of-bounds read."""

    def require(condition: bool, what: str) -> None:
        if not condition:
            raise CorruptArtifactError(f"preference artifact {directory}: {what}")

    require(embeddings.ndim == 2, "entity_embeddings is not a matrix")
    require(
        arrays["user_ids"].shape == (num_users,),
        f"user_ids does not hold {num_users} users",
    )
    require(
        arrays["user_matrix"].shape == (num_users, embeddings.shape[1]),
        f"user_matrix is not {num_users} users by the embedding width",
    )
    require(
        arrays["entity_ptr"].shape == (len(embeddings) + 1,),
        f"entity_ptr does not hold {len(embeddings)} entities",
    )
    require(
        arrays["user_rows"].shape
        == arrays["values"].shape
        == (int(arrays["entity_ptr"][-1]),),
        "postings arrays disagree on the entry count",
    )
