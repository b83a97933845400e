"""Entity-graph substrate: in-memory graph, CSR artifact, k-hop reasoning, sampling."""

from repro.graph.entity_graph import (
    NUM_RELATION_TYPES,
    RELATION_BOTH,
    RELATION_COOCCURRENCE,
    RELATION_NAMES,
    RELATION_RANKED,
    RELATION_SEMANTIC,
    EntityGraph,
)
from repro.graph.csr import CSR_FORMAT, CSRGraph, csr_meta_digest
from repro.graph.khop import ExpansionResult, k_hop_expansion
from repro.graph.sampling import (
    AliasSampler,
    node2vec_walks,
    random_walks,
    sample_corrupted_targets,
    sample_negative_pairs,
)
from repro.graph.metrics import GraphSummary, connected_components, local_clustering, mean_clustering, summarize_graph

__all__ = [
    "CSR_FORMAT",
    "CSRGraph",
    "csr_meta_digest",
    "EntityGraph",
    "ExpansionResult",
    "k_hop_expansion",
    "AliasSampler",
    "node2vec_walks",
    "random_walks",
    "sample_corrupted_targets",
    "sample_negative_pairs",
    "GraphSummary",
    "connected_components",
    "local_clustering",
    "mean_clustering",
    "summarize_graph",
    "NUM_RELATION_TYPES",
    "RELATION_BOTH",
    "RELATION_COOCCURRENCE",
    "RELATION_NAMES",
    "RELATION_RANKED",
    "RELATION_SEMANTIC",
]
