"""Graph neural network layers and encoders."""

from repro.gnn.common import gcn_norm_coefficients, message_edges
from repro.gnn.layers import CompGCNLayer, GATLayer, GCNLayer, GraphSAGELayer
from repro.gnn.geniepath import GeniePathEncoder, GeniePathLayer
from repro.gnn.encoder import GNNEncoder

__all__ = [
    "message_edges",
    "gcn_norm_coefficients",
    "GCNLayer",
    "GraphSAGELayer",
    "GATLayer",
    "CompGCNLayer",
    "GeniePathLayer",
    "GeniePathEncoder",
    "GNNEncoder",
]
