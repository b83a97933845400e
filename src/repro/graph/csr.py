"""Immutable CSR snapshot artifacts — the graph serving substrate.

The paper serves k-hop reasoning over millions of entities and billions of
edges from Geabase; the reproduction's equivalent lever is freezing every
committed graph version into a compressed-sparse-row artifact:

* ``offsets`` — int32, ``num_nodes + 1`` entries; row ``n`` of the
  adjacency is ``neighbors[offsets[n]:offsets[n + 1]]``;
* ``neighbors`` — int32, both directions of every undirected edge, each
  row sorted ascending by neighbor id (the adjacency order k-hop
  expansion's tie rules are defined over);
* ``weights`` — float32 edge confidences aligned with ``neighbors``;
* ``relations`` — int32 relation-source ids aligned with ``neighbors``.

On disk the artifact is a directory of plain ``.npy`` files plus a
``meta.json`` manifest. Every array file is written through the package's
atomic temp-file + fsync + rename path and carries a SHA-256 checksum in
the manifest; the manifest itself is written *last*, so a crash mid-freeze
leaves no manifest and the artifact simply does not exist yet.

Opening is the proof: :meth:`CSRGraph.load` reads each array file once
into process memory (:func:`~repro.resilience.read_proven_array`), checks
its checksum from that buffer and serves it read-only. An array with no
recorded checksum is refused. A generation owns its bytes from then on,
so its files may be truncated, unlinked or rewritten under a live server.

Float rule: weights are quantised to float32 at freeze time (half the
bytes, twice the cache density). An expansion score is the float64 product
of the *stored* float32 weights along the best path — for a committed
weight that is not float32-representable it differs from the product of
the committed float64 values in the 8th significant digit, and weight
comparisons (``min_edge_weight``, per-row top-k) see the stored value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import CorruptArtifactError, StorageError
from repro.resilience import (
    atomic_write_array,
    atomic_write_text,
    file_digest,
    read_proven_array,
)

#: On-disk format identifier, bumped on incompatible layout changes.
CSR_FORMAT = "csr-v1"

META_NAME = "meta.json"

_ARRAY_SPECS = (
    ("offsets", np.int32),
    ("neighbors", np.int32),
    ("weights", np.float32),
    ("relations", np.int32),
)


class CSRGraph:
    """Read-only CSR adjacency with the ``num_nodes``/``neighbors`` protocol.

    Arrays are freshly frozen, or read-only copies proven at open.
    Either way the structure is immutable: generations are replaced,
    never edited.
    """

    def __init__(
        self,
        num_nodes: int,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        weights: np.ndarray,
        relations: np.ndarray | None = None,
        source: str | Path | None = None,
    ) -> None:
        if len(offsets) != num_nodes + 1:
            raise StorageError(
                f"offsets has {len(offsets)} entries for {num_nodes} nodes"
            )
        if len(neighbors) != len(weights):
            raise StorageError("neighbors/weights length mismatch")
        self.num_nodes = int(num_nodes)
        self.offsets = offsets
        self.neighbors_arr = neighbors
        self.weights_arr = weights
        self.relations_arr = (
            np.zeros(len(neighbors), dtype=np.int32) if relations is None else relations
        )
        self.source = Path(source) if source is not None else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        pairs: np.ndarray,
        weights: np.ndarray | None = None,
        relations: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Freeze a canonical (one row per undirected edge) edge list.

        Both directions are materialised and every row is sorted by
        neighbor id.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n_edges = len(pairs)
        w = (
            np.ones(n_edges, dtype=np.float32)
            if weights is None
            else np.asarray(weights, dtype=np.float32)
        )
        r = (
            np.zeros(n_edges, dtype=np.int32)
            if relations is None
            else np.asarray(relations, dtype=np.int32)
        )
        if len(w) != n_edges or len(r) != n_edges:
            raise StorageError("weights/relations must match pairs length")
        if n_edges and (pairs.min() < 0 or pairs.max() >= num_nodes):
            raise StorageError("edge endpoint out of range")
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        both_w = np.concatenate([w, w])
        both_r = np.concatenate([r, r])
        order = np.lexsort((dst, src))
        counts = np.bincount(src, minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1] > np.iinfo(np.int32).max:
            raise StorageError("graph too large for int32 CSR offsets")
        return cls(
            num_nodes,
            offsets.astype(np.int32),
            dst[order].astype(np.int32),
            both_w[order],
            both_r[order].astype(np.int32),
        )

    @classmethod
    def from_entity_graph(cls, graph) -> "CSRGraph":
        """Freeze an :class:`~repro.graph.entity_graph.EntityGraph`."""
        lo, hi = graph.canonical_pairs()
        return cls.from_edges(
            graph.num_nodes, np.stack([lo, hi], axis=1), graph.weight, graph.relation
        )

    # ------------------------------------------------------------------
    # Read protocol (EntityGraph-compatible + bulk CSR view)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge is stored twice in CSR)."""
        return len(self.neighbors_arr) // 2

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, weights)`` — the point-read protocol."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        lo, hi = self.offsets[node], self.offsets[node + 1]
        return self.neighbors_arr[lo:hi], self.weights_arr[lo:hi]

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, neighbors, weights)`` for vectorized bulk kernels."""
        return self.offsets, self.neighbors_arr, self.weights_arr

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets).astype(np.int64)

    def graph(self):
        """Materialise as an :class:`EntityGraph` (canonical edges only).

        Used by drift comparisons at swap time — not a hot path.
        """
        from repro.graph.entity_graph import EntityGraph

        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        dst = np.asarray(self.neighbors_arr, dtype=np.int64)
        keep = src < dst
        return EntityGraph(
            self.num_nodes,
            src[keep],
            dst[keep],
            np.asarray(self.weights_arr, dtype=np.float64)[keep],
            np.asarray(self.relations_arr, dtype=np.int64)[keep],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = f", source={str(self.source)!r}" if self.source else ""
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}{src})"

    # ------------------------------------------------------------------
    # Artifact I/O
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Write the artifact directory atomically; returns its path.

        Each array file goes through temp + fsync + rename; ``meta.json``
        (carrying every file's SHA-256) is written last as the commit
        point. Re-freezing the same content is idempotent.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        checksums: dict[str, str] = {}
        for name, dtype in _ARRAY_SPECS:
            checksums[name] = atomic_write_array(
                directory / f"{name}.npy",
                np.asarray(getattr(self, self._attr(name)), dtype=dtype),
            )
        meta = {
            "format": CSR_FORMAT,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "checksums": checksums,
        }
        atomic_write_text(
            directory / META_NAME, json.dumps(meta, indent=2, sort_keys=True)
        )
        self.source = directory
        return directory

    @staticmethod
    def _attr(name: str) -> str:
        return "offsets" if name == "offsets" else f"{name}_arr"

    @classmethod
    def load(cls, directory: str | Path) -> "CSRGraph":
        """Open an artifact directory: every array proven and held in memory.

        Each array is read once and its SHA-256 checked against
        ``meta.json`` from the buffer it is served from; an array with no
        recorded checksum, a mismatch, a wrong dtype or an edge count that
        disagrees with the manifest raises
        :class:`~repro.errors.CorruptArtifactError`.
        """
        directory = Path(directory)
        meta_path = directory / META_NAME
        if not meta_path.exists():
            raise StorageError(f"CSR artifact missing: {meta_path}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise CorruptArtifactError(
                f"CSR artifact manifest unreadable: {meta_path}"
            ) from error
        if meta.get("format") != CSR_FORMAT:
            raise CorruptArtifactError(
                f"CSR artifact {directory} has format {meta.get('format')!r}, "
                f"expected {CSR_FORMAT!r}"
            )
        checksums = meta.get("checksums") or {}
        arrays: dict[str, np.ndarray] = {}
        for name, dtype in _ARRAY_SPECS:
            path = directory / f"{name}.npy"
            arrays[name] = read_proven_array(path, checksums.get(name))
            if arrays[name].dtype != dtype:
                raise CorruptArtifactError(
                    f"CSR artifact {path} has dtype {arrays[name].dtype}, "
                    f"expected {np.dtype(dtype)}"
                )
        try:
            graph = cls(
                int(meta["num_nodes"]),
                arrays["offsets"],
                arrays["neighbors"],
                arrays["weights"],
                arrays["relations"],
                source=directory,
            )
            expected_edges = int(meta["num_edges"])
        except (KeyError, TypeError, ValueError) as error:
            raise CorruptArtifactError(
                f"CSR artifact manifest malformed: {meta_path}"
            ) from error
        if graph.num_edges != expected_edges:
            raise CorruptArtifactError(
                f"CSR artifact {directory} edge count mismatch"
            )
        return graph


def csr_meta_digest(directory: str | Path) -> str:
    """SHA-256 of the artifact manifest — the registry's record checksum.

    The manifest embeds every array file's checksum, so proving the
    manifest bytes transitively pins the whole artifact.
    """
    return file_digest(Path(directory) / META_NAME)
