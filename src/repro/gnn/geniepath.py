"""GeniePath: adaptive receptive paths (Liu et al., 2018).

The paper's ALPC uses GeniePath as the backbone entity encoder (§III-B.2,
Eq. 1). Each layer combines:

* a **breadth** function — attention over neighbours,
  ``alpha(i, j) = softmax_j v^T tanh(W_src h_i + W_dst h_j)``;
* a **depth** function — LSTM-style gating that decides how much of the new
  neighbourhood signal enters the running memory ``C``.
"""

from __future__ import annotations

import numpy as np

from repro import rng as rng_mod
from repro.nn.layers import Linear
from repro.nn.module import Module, ModuleList
from repro.tensor import (
    Tensor,
    edge_attention_logits,
    init,
    segment_softmax,
    sigmoid,
    tanh,
    weighted_scatter,
)


class GeniePathLayer(Module):
    """One breadth (attention) + depth (LSTM gate) step."""

    def __init__(self, dim: int, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(rng)
        self.dim = dim
        self.attn_src = Linear(dim, dim, rng, bias=False)
        self.attn_dst = Linear(dim, dim, rng, bias=False)
        self.attn_vector = init.xavier_uniform((dim, 1), rng)
        self.breadth_linear = Linear(dim, dim, rng)
        self.gate_linear = Linear(dim, 4 * dim, rng)

    def forward(
        self,
        h: Tensor,
        memory: Tensor,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
    ) -> tuple[Tensor, Tensor]:
        # Self-loops so every node attends at least to itself.
        loop = np.arange(num_nodes)
        src = np.concatenate([src, loop])
        dst = np.concatenate([dst, loop])

        # Breadth: attention over incoming neighbours. Two fused edge ops, so
        # one (E, d) array per layer lives until backward() (DESIGN.md).
        logits = edge_attention_logits(
            self.attn_src(h), self.attn_dst(h), self.attn_vector, src, dst
        )
        weights = segment_softmax(logits, dst, num_nodes)  # (E,)
        neighborhood = weighted_scatter(h, weights, src, dst, num_nodes)
        candidate = tanh(self.breadth_linear(neighborhood))

        # Depth: LSTM gating over the stacked layers.
        gates = self.gate_linear(candidate)
        i_gate = sigmoid(gates[:, : self.dim])
        f_gate = sigmoid(gates[:, self.dim : 2 * self.dim])
        o_gate = sigmoid(gates[:, 2 * self.dim : 3 * self.dim])
        c_tilde = tanh(gates[:, 3 * self.dim :])
        new_memory = f_gate * memory + i_gate * c_tilde
        new_h = o_gate * tanh(new_memory)
        return new_h, new_memory


class GeniePathEncoder(Module):
    """Input projection + a stack of GeniePath layers.

    ``forward`` maps ``(num_nodes, in_dim)`` features to ``(num_nodes,
    hidden_dim)`` embeddings given the directed edge list.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(rng)
        self.input_linear = Linear(in_dim, hidden_dim, rng)
        self.layers = ModuleList([GeniePathLayer(hidden_dim, rng) for _ in range(num_layers)])

    def forward(self, x: Tensor, src: np.ndarray, dst: np.ndarray, num_nodes: int) -> Tensor:
        h = tanh(self.input_linear(x))
        memory = h
        for layer in self.layers:
            h, memory = layer(h, memory, src, dst, num_nodes)
        return h
