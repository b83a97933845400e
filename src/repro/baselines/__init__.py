"""Link-prediction baselines for the Table II comparison."""

from repro.baselines.common import (
    EmbeddingLinkPredictor,
    GNNLinkPredictor,
    LinkPredictionResult,
    evaluate_link_predictor,
)
from repro.baselines.deepwalk import DeepWalkLinkPredictor
from repro.baselines.node2vec import Node2VecLinkPredictor
from repro.baselines.vgae import VGAELinkPredictor
from repro.baselines.seal import SEALLinkPredictor, drnl_labels
from repro.baselines.pagnn import PaGNNLinkPredictor
from repro.baselines.heuristics import HeuristicLinkPredictor, pairwise_heuristics
from repro.gnn.encoder import GNNEncoder
from repro.gnn.geniepath import GeniePathEncoder


def make_baseline(name: str, in_dim: int, hidden_dim: int = 32, seed: int = 0):
    """Factory for the Table II baseline rows.

    ``name`` ∈ {DeepWalk, Node2Vec, SEAL, VGAE, GeniePath, CompGCN, PaGNN}.
    """
    if name == "DeepWalk":
        return DeepWalkLinkPredictor(dim=hidden_dim, seed=seed)
    if name == "Node2Vec":
        return Node2VecLinkPredictor(dim=hidden_dim, seed=seed)
    if name == "SEAL":
        return SEALLinkPredictor(hidden_dim=hidden_dim, seed=seed)
    if name == "VGAE":
        return VGAELinkPredictor(hidden_dim=hidden_dim, latent_dim=hidden_dim // 2, seed=seed)
    if name == "GeniePath":
        encoder = GeniePathEncoder(in_dim, hidden_dim, num_layers=2, rng=seed)
        return GNNLinkPredictor("GeniePath", encoder, hidden_dim, seed=seed)
    if name == "CompGCN":
        encoder = GNNEncoder("compgcn", in_dim, hidden_dim, num_layers=2, rng=seed)
        return GNNLinkPredictor("CompGCN", encoder, hidden_dim, seed=seed, uses_relations=True)
    if name == "PaGNN":
        return PaGNNLinkPredictor(hidden_dim=hidden_dim, seed=seed)
    if name in ("GCN", "GAT", "GraphSAGE"):
        # Extra baselines beyond the paper's table: the standard GNN zoo
        # behind the same shared link-prediction harness.
        layer = {"GCN": "gcn", "GAT": "gat", "GraphSAGE": "sage"}[name]
        encoder = GNNEncoder(layer, in_dim, hidden_dim, num_layers=2, rng=seed)
        return GNNLinkPredictor(name, encoder, hidden_dim, seed=seed)
    raise ValueError(f"unknown baseline {name!r}")


#: The paper's Table II baselines, in its row order.
BASELINE_NAMES = ["DeepWalk", "Node2Vec", "SEAL", "VGAE", "GeniePath", "CompGCN", "PaGNN"]
#: Additional baselines this library provides beyond the paper's table.
EXTRA_BASELINE_NAMES = ["GCN", "GAT", "GraphSAGE"]

__all__ = [
    "EmbeddingLinkPredictor",
    "GNNLinkPredictor",
    "LinkPredictionResult",
    "evaluate_link_predictor",
    "DeepWalkLinkPredictor",
    "Node2VecLinkPredictor",
    "VGAELinkPredictor",
    "SEALLinkPredictor",
    "drnl_labels",
    "PaGNNLinkPredictor",
    "HeuristicLinkPredictor",
    "pairwise_heuristics",
    "make_baseline",
    "BASELINE_NAMES",
]
