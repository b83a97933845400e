"""Neural-network layers built on :mod:`repro.tensor`."""

from repro.nn.module import Module, ModuleList
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, MLP
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer
from repro.nn.crf import LinearChainCRF
from repro.nn import functional

__all__ = [
    "Module",
    "ModuleList",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "MLP",
    "MultiHeadAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "LinearChainCRF",
    "functional",
]
