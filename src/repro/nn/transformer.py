"""Transformer encoder blocks (pre-norm) for the text substrates.

These power the mini-BERT masked-language model (semantic embeddings
``E^Se``) and the NER tagger that replaces the paper's BertCRF.
"""

from __future__ import annotations

import numpy as np

from repro import rng as rng_mod
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.module import Module, ModuleList
from repro.tensor import Tensor, gelu


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: LN → MHA → residual; LN → FFN → residual."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: int | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(rng)
        ffn_dim = ffn_dim or 4 * dim
        self.attn = MultiHeadAttention(dim, num_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn_in = Linear(dim, ffn_dim, rng)
        self.ffn_out = Linear(ffn_dim, dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        attended = self.attn(self.norm1(x), key_padding_mask=key_padding_mask)
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = x + attended
        hidden = self.ffn_out(gelu(self.ffn_in(self.norm2(x)), where=key_padding_mask))
        if self.dropout is not None:
            hidden = self.dropout(hidden)
        return x + hidden


class TransformerEncoder(Module):
    """Token + position embeddings followed by a stack of encoder layers."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        num_layers: int,
        num_heads: int,
        max_len: int,
        dropout: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(rng)
        self.dim = dim
        self.max_len = max_len
        self.token_embedding = Embedding(vocab_size, dim, rng)
        self.position_embedding = Embedding(max_len, dim, rng)
        self.layers = ModuleList(
            [TransformerEncoderLayer(dim, num_heads, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(dim)

    def forward(self, token_ids: np.ndarray, key_padding_mask: np.ndarray | None = None) -> Tensor:
        """Encode ``(batch, seq)`` int token ids to ``(batch, seq, dim)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        batch, seq = token_ids.shape
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        x = self.token_embedding(token_ids) + self.position_embedding(positions)
        for layer in self.layers:
            x = layer(x, key_padding_mask=key_padding_mask)
        return self.final_norm(x)
