"""Structural statistics of entity graphs.

Used to sanity-check mined graphs against the ground truth (topic clusters
should show up as high clustering and assortative degrees) and to describe
the benchmark datasets in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.entity_graph import EntityGraph


@dataclass
class GraphSummary:
    num_nodes: int
    num_edges: int
    density: float
    mean_degree: float
    max_degree: int
    isolated_nodes: int
    num_components: int
    largest_component: int
    mean_clustering: float

    def to_text(self) -> str:
        return (
            f"nodes {self.num_nodes}, edges {self.num_edges}, "
            f"density {self.density:.4f}, mean degree {self.mean_degree:.1f} "
            f"(max {self.max_degree}), isolated {self.isolated_nodes}, "
            f"components {self.num_components} (largest {self.largest_component}), "
            f"clustering {self.mean_clustering:.3f}"
        )


def connected_components(graph: EntityGraph) -> list[list[int]]:
    """Connected components via BFS over the CSR adjacency."""
    seen = np.zeros(graph.num_nodes, dtype=bool)
    components: list[list[int]] = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nbr in graph.neighbors(node)[0]:
                    nbr = int(nbr)
                    if not seen[nbr]:
                        seen[nbr] = True
                        component.append(nbr)
                        nxt.append(nbr)
            frontier = nxt
        components.append(component)
    return components


def local_clustering(graph: EntityGraph, node: int) -> float:
    """Fraction of the node's neighbour pairs that are themselves linked."""
    nbrs = [int(v) for v in graph.neighbors(node)[0]]
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for i in range(k):
        for j in range(i + 1, k):
            if graph.has_edge(nbrs[i], nbrs[j]):
                links += 1
    return 2.0 * links / (k * (k - 1))


def mean_clustering(graph: EntityGraph, sample: int | None = 200, rng_seed: int = 0) -> float:
    """Average local clustering coefficient (sampled for large graphs)."""
    nodes = np.arange(graph.num_nodes)
    if sample is not None and sample < graph.num_nodes:
        nodes = np.random.default_rng(rng_seed).choice(
            graph.num_nodes, size=sample, replace=False
        )
    values = [local_clustering(graph, int(v)) for v in nodes]
    return float(np.mean(values)) if values else 0.0


def summarize_graph(graph: EntityGraph, clustering_sample: int | None = 200) -> GraphSummary:
    """One-call structural summary."""
    degrees = graph.degrees()
    components = connected_components(graph)
    possible = graph.num_nodes * (graph.num_nodes - 1) / 2
    return GraphSummary(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        density=graph.num_edges / possible if possible else 0.0,
        mean_degree=float(degrees.mean()) if len(degrees) else 0.0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        isolated_nodes=int((degrees == 0).sum()),
        num_components=len(components),
        largest_component=max((len(c) for c in components), default=0),
        mean_clustering=mean_clustering(graph, sample=clustering_sample),
    )
