"""GeniePath's breadth step as two fused edge ops.

``edge_attention_logits`` and ``weighted_scatter`` replace a chain of
gathers, sums and products that keeps two per-edge arrays per layer alive
until ``backward()``. They must compute the same bits as that chain —
values, gradients and gradient accumulation order — and keep one.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.gnn.geniepath import GeniePathEncoder, GeniePathLayer
from repro.tensor import (
    Tensor,
    edge_attention_logits,
    gather_rows,
    scatter_sum,
    tanh,
    weighted_scatter,
)
from repro.trmp import ALPCConfig, ALPCLinkPredictor, ALPCModel

from helpers import assert_gradcheck, composed_geniepath_breadth


def edges(rng, num_nodes=7, num_edges=15):
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    return src, dst, num_nodes


def use_composed_breadth(monkeypatch):
    monkeypatch.setattr(GeniePathLayer, "forward", composed_geniepath_breadth)


class TestGradcheck:
    def test_edge_attention_logits(self, rng):
        src, dst, n = edges(rng)
        src_part = rng.normal(size=(n, 3))
        dst_part = rng.normal(size=(n, 3))
        vector = rng.normal(size=(3, 1))
        coef = rng.normal(size=len(src))

        def loss(logits):
            return (logits * coef).sum()

        assert_gradcheck(
            lambda t: loss(edge_attention_logits(t, Tensor(dst_part), Tensor(vector), src, dst)),
            src_part,
        )
        assert_gradcheck(
            lambda t: loss(edge_attention_logits(Tensor(src_part), t, Tensor(vector), src, dst)),
            dst_part,
        )
        assert_gradcheck(
            lambda t: loss(edge_attention_logits(Tensor(src_part), Tensor(dst_part), t, src, dst)),
            vector,
        )

    def test_weighted_scatter(self, rng):
        src, dst, n = edges(rng)
        h = rng.normal(size=(n, 4))
        weights = rng.random(len(src))
        coef = rng.normal(size=(n, 4))
        assert_gradcheck(
            lambda t: (weighted_scatter(t, Tensor(weights), src, dst, n) * coef).sum(), h
        )
        assert_gradcheck(
            lambda t: (weighted_scatter(Tensor(h), t, src, dst, n) * coef).sum(), weights
        )


class TestSameBitsAsComposed:
    def test_each_op_matches_its_chain(self, rng):
        src, dst, n = edges(rng, num_nodes=9, num_edges=40)
        d = 5
        arrays = {
            "src_part": rng.normal(size=(n, d)),
            "dst_part": rng.normal(size=(n, d)),
            "vector": rng.normal(size=(d, 1)),
            "h": rng.normal(size=(n, d)),
            "weights": rng.random(len(src)),
        }
        g_logits = rng.normal(size=len(src))
        g_out = rng.normal(size=(n, d))

        def run(fused):
            t = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
            if fused:
                logits = edge_attention_logits(
                    t["src_part"], t["dst_part"], t["vector"], src, dst
                )
                out = weighted_scatter(t["h"], t["weights"], src, dst, n)
            else:
                hidden = tanh(gather_rows(t["dst_part"], dst) + gather_rows(t["src_part"], src))
                logits = (hidden @ t["vector"]).reshape(len(src))
                messages = gather_rows(t["h"], src) * t["weights"].reshape(len(src), 1)
                out = scatter_sum(messages, dst, n)
            logits.backward(g_logits)
            out.backward(g_out)
            return [logits.data, out.data] + [t[k].grad for k in arrays]

        for fused, composed in zip(run(True), run(False)):
            assert np.array_equal(fused, composed)

    def test_two_layer_encoder_forward_and_every_gradient(self, rng, monkeypatch):
        """Two layers, so layer 1's ``h`` has consumers in both the breadth
        step and the gate: its gradient is a sum whose order a one-layer
        test cannot see."""
        src, dst, n = edges(rng, num_nodes=20, num_edges=60)
        x = rng.normal(size=(n, 6))
        g = rng.normal(size=(n, 8))

        def run():
            encoder = GeniePathEncoder(6, 8, num_layers=2, rng=3)
            out = encoder(Tensor(x), src, dst, n)
            out.backward(g)
            return out.data, [p.grad for p in encoder.parameters()]

        fused_out, fused_grads = run()
        use_composed_breadth(monkeypatch)
        oracle_out, oracle_grads = run()
        assert np.array_equal(fused_out, oracle_out)
        assert len(fused_grads) == len(oracle_grads)
        for mine, oracle in zip(fused_grads, oracle_grads):
            assert np.array_equal(mine, oracle)


def fit_alpc(split, candidate, e_semantic, epochs=2):
    return ALPCLinkPredictor(ALPCConfig(epochs=epochs, seed=1)).fit(
        split, candidate.node_features, e_semantic
    )


def test_seeded_alpc_fit_trains_the_same_bits(split, candidate, e_semantic, monkeypatch):
    fused = [p.data.copy() for p in fit_alpc(split, candidate, e_semantic).model.parameters()]
    use_composed_breadth(monkeypatch)
    oracle = [p.data.copy() for p in fit_alpc(split, candidate, e_semantic).model.parameters()]
    assert len(fused) == len(oracle)
    for mine, theirs in zip(fused, oracle):
        assert mine.tobytes() == theirs.tobytes()


def forward_live_bytes(split, candidate) -> int:
    """Bytes the ALPC encoder's forward leaves alive: the graph that
    ``backward()`` will read, measured while the embeddings are bound."""
    graph = split.train_graph
    src, dst, _ = graph.directed_edges()
    x = Tensor(candidate.node_features)
    model = ALPCModel(x.shape[1], ALPCConfig(seed=1))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        z = model.encode(x, src, dst, graph.num_nodes)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del z
    return live - base


def test_fused_breadth_keeps_one_per_edge_array_per_layer(split, candidate, monkeypatch):
    """At the end of the forward the composed breadth step keeps two
    ``(E, d)`` arrays per layer for ``backward()`` — the ``tanh`` output its
    matmul reads and the gathered ``h[src]`` its product reads — and the
    fused ops keep one, the ``tanh`` output (``weighted_scatter``
    re-gathers ``h[src]``). Everything else the two graphs keep is the
    same, so the live sets differ by one array per layer: 1.01 measured
    here. A fused op that kept one more per-edge array would read about 0
    and fail."""
    forward_live_bytes(split, candidate)  # one-time allocations, untraced
    fused = forward_live_bytes(split, candidate)
    use_composed_breadth(monkeypatch)
    composed = forward_live_bytes(split, candidate)

    config = ALPCConfig()
    num_edges = 2 * split.train_graph.num_edges + split.train_graph.num_nodes
    per_edge_array = num_edges * config.hidden_dim * 8
    kept_fewer_per_layer = (composed - fused) / (per_edge_array * config.num_layers)
    assert kept_fewer_per_layer >= 0.5, (fused, composed, kept_fewer_per_layer)
