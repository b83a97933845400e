"""In-memory entity graph with CSR adjacency.

The entity graph is the central data structure of the EGL system: nodes are
entities from the Entity Dict, edges are mined relations (weighted by
confidence, tagged with the relation source — co-occurrence, semantic, or
ranked). The class is immutable after construction; pipeline stages build new
graphs rather than mutating shared state.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError

#: Relation-source labels used as CompGCN relation types and stored per edge.
RELATION_COOCCURRENCE = 0
RELATION_SEMANTIC = 1
RELATION_BOTH = 2
RELATION_RANKED = 3
NUM_RELATION_TYPES = 4

RELATION_NAMES = {
    RELATION_COOCCURRENCE: "co_occurrence",
    RELATION_SEMANTIC: "semantic",
    RELATION_BOTH: "both",
    RELATION_RANKED: "ranked",
}


class EntityGraph:
    """Undirected weighted multigraph over ``num_nodes`` entities.

    Parameters
    ----------
    num_nodes:
        Number of entities (node ids are ``0..num_nodes-1``).
    src, dst:
        Endpoint arrays of the *canonical* edge list (each undirected edge
        stored once, ``src < dst`` is not required).
    weight:
        Optional per-edge confidence in ``(0, 1]``; defaults to 1.
    relation:
        Optional per-edge relation-source id (see module constants).
    """

    def __init__(
        self,
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray | None = None,
        relation: np.ndarray | None = None,
    ) -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if len(src) and (src.min() < 0 or max(src.max(), dst.max()) >= num_nodes):
            raise GraphError("edge endpoint out of range")
        if np.any(src == dst):
            raise GraphError("self-loops are not allowed in the entity graph")

        self.num_nodes = int(num_nodes)
        self.src = src
        self.dst = dst
        self.weight = (
            np.ones(len(src)) if weight is None else np.asarray(weight, dtype=np.float64)
        )
        self.relation = (
            np.zeros(len(src), dtype=np.int64)
            if relation is None
            else np.asarray(relation, dtype=np.int64)
        )
        if len(self.weight) != len(src) or len(self.relation) != len(src):
            raise GraphError("weight/relation arrays must match the edge count")

        self._build_csr()
        self._edge_keys = self._key_set()

    def _key_set(self) -> set[tuple[int, int]]:
        return set((int(a), int(b)) for a, b in zip(*self.canonical_pairs()))

    def __setstate__(self, state: dict) -> None:
        # Pickle refills a set in its iteration order, and the order a set
        # iterates in depends on how it was filled, so the copy need not
        # iterate like the original. Rebuilt the way the constructor builds
        # it, an unpickled graph pickles to the same bytes as the graph it
        # came from, which is what the stage checkpoints' digests compare.
        # ``setattr`` interns the names, as pickle's own state restore does.
        for name, value in state.items():
            setattr(self, name, value)
        self._edge_keys = self._key_set()

    # ------------------------------------------------------------------
    def _build_csr(self) -> None:
        """Build symmetric CSR adjacency from the canonical edge list."""
        both_src = np.concatenate([self.src, self.dst])
        both_dst = np.concatenate([self.dst, self.src])
        both_w = np.concatenate([self.weight, self.weight])

        order = np.argsort(both_src, kind="stable")
        self._adj_dst = both_dst[order]
        self._adj_weight = both_w[order]
        counts = np.bincount(both_src, minlength=self.num_nodes)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        pairs: Iterable[tuple[int, int]],
        weights: Sequence[float] | None = None,
        relations: Sequence[int] | None = None,
        dedupe: bool = True,
    ) -> "EntityGraph":
        """Build from (u, v) pairs; duplicates keep the max weight."""
        pairs = list(pairs)
        if not pairs:
            return cls(num_nodes, np.empty(0, np.int64), np.empty(0, np.int64))
        src = np.array([min(u, v) for u, v in pairs], dtype=np.int64)
        dst = np.array([max(u, v) for u, v in pairs], dtype=np.int64)
        w = np.ones(len(pairs)) if weights is None else np.asarray(weights, dtype=np.float64)
        r = (
            np.zeros(len(pairs), dtype=np.int64)
            if relations is None
            else np.asarray(relations, dtype=np.int64)
        )
        if dedupe:
            keys = src * np.int64(num_nodes) + dst
            order = np.argsort(keys, kind="stable")
            keys, src, dst, w, r = keys[order], src[order], dst[order], w[order], r[order]
            unique_keys, starts = np.unique(keys, return_index=True)
            ends = np.append(starts[1:], len(keys))
            keep_w = np.array([w[a:b].max() for a, b in zip(starts, ends)])
            keep_r = np.array([r[a:b].max() for a, b in zip(starts, ends)], dtype=np.int64)
            src, dst, w, r = src[starts], dst[starts], keep_w, keep_r
        return cls(num_nodes, src, dst, w, r)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.src)

    def canonical_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (lo, hi) arrays with lo < hi for every canonical edge."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        return lo, hi

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_keys

    def edge_key_set(self) -> set[tuple[int, int]]:
        """A copy of the canonical edge-key set (for sampling negatives)."""
        return set(self._edge_keys)

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (neighbor ids, edge weights) for ``node``."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self._adj_dst[lo:hi], self._adj_weight[lo:hi]

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, neighbors, weights)`` for vectorized bulk kernels.

        Same protocol as :meth:`repro.graph.csr.CSRGraph.csr_view`; row
        ``n`` spans ``offsets[n]:offsets[n + 1]`` of the flat arrays.
        """
        return self.indptr, self._adj_dst, self._adj_weight

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every edge: (src, dst, relation) arrays.

        This is the message-passing view used by the GNN encoders.
        """
        s = np.concatenate([self.src, self.dst])
        d = np.concatenate([self.dst, self.src])
        r = np.concatenate([self.relation, self.relation])
        return s, d, r

    # ------------------------------------------------------------------
    def remove_edges(self, pairs: Iterable[tuple[int, int]]) -> "EntityGraph":
        """Return a new graph without the given canonical edges."""
        drop = {(min(u, v), max(u, v)) for u, v in pairs}
        lo, hi = self.canonical_pairs()
        keep = np.array(
            [(int(a), int(b)) not in drop for a, b in zip(lo, hi)], dtype=bool
        )
        return EntityGraph(
            self.num_nodes, self.src[keep], self.dst[keep], self.weight[keep], self.relation[keep]
        )

    def union(self, other: "EntityGraph") -> "EntityGraph":
        """Merge two graphs over the same node set (max weight on overlap)."""
        if other.num_nodes != self.num_nodes:
            raise GraphError("union requires graphs over the same node set")
        pairs = list(zip(*self.canonical_pairs())) + list(zip(*other.canonical_pairs()))
        weights = np.concatenate([self.weight, other.weight])
        relations = np.concatenate([self.relation, other.relation])
        return EntityGraph.from_edge_list(self.num_nodes, pairs, weights, relations)

    def subgraph(self, nodes: Sequence[int]) -> tuple["EntityGraph", np.ndarray]:
        """Induced subgraph; returns (graph, original-node-id array)."""
        nodes = np.asarray(sorted(set(int(n) for n in nodes)), dtype=np.int64)
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[nodes] = np.arange(len(nodes))
        keep = (remap[self.src] >= 0) & (remap[self.dst] >= 0)
        return (
            EntityGraph(
                len(nodes),
                remap[self.src[keep]],
                remap[self.dst[keep]],
                self.weight[keep],
                self.relation[keep],
            ),
            nodes,
        )

    def to_networkx(self):
        """Export to :mod:`networkx` for inspection/visualisation."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for u, v, w, r in zip(self.src, self.dst, self.weight, self.relation):
            g.add_edge(int(u), int(v), weight=float(w), relation=RELATION_NAMES.get(int(r), "?"))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EntityGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
