"""Micro-benchmarks of the substrates (classic pytest-benchmark rounds).

Not a paper table — these track the cost of the building blocks every
experiment leans on: autograd backward, GeniePath forward, segment softmax,
k-hop expansion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import GeniePathEncoder
from repro.graph import EntityGraph, k_hop_expansion
from repro.nn import MLP
from repro.tensor import Tensor, segment_softmax


@pytest.fixture(scope="module")
def random_graph():
    rng = np.random.default_rng(0)
    n, m = 500, 4000
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    return EntityGraph.from_edge_list(n, sorted(pairs), rng.random(m) * 0.9 + 0.1)


def test_mlp_forward_backward(benchmark, rng):
    mlp = MLP([64, 128, 128, 1], rng=0)
    x = rng.normal(size=(512, 64))

    def step():
        out = mlp(Tensor(x))
        (out * out).mean().backward()
        mlp.zero_grad()

    benchmark(step)


def test_geniepath_full_graph_forward(benchmark, random_graph, rng):
    encoder = GeniePathEncoder(32, 32, num_layers=2, rng=0)
    src, dst, _ = random_graph.directed_edges()
    x = Tensor(rng.normal(size=(random_graph.num_nodes, 32)))
    benchmark(lambda: encoder(x, src, dst, random_graph.num_nodes))


def test_segment_softmax_large(benchmark, rng):
    logits = Tensor(rng.normal(size=(20_000, 2)))
    segments = rng.integers(0, 1000, size=20_000)
    benchmark(lambda: segment_softmax(logits, segments, 1000))


def test_khop_expansion(benchmark, random_graph):
    benchmark(lambda: k_hop_expansion(random_graph, [0, 1, 2], depth=3))

