"""Cross-module property tests on randomly generated graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_model import (
    assert_matches_reference,
    expansion_key,
    reference_expansion,
    reference_scores,
)
from repro.graph import EntityGraph, k_hop_expansion
from repro.preference import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


def graph_strategy(max_nodes: int = 12):
    @st.composite
    def build(draw):
        n = draw(st.integers(3, max_nodes))
        m = draw(st.integers(1, min(20, n * (n - 1) // 2)))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        pairs = set()
        while len(pairs) < m:
            u, v = rng.integers(0, n, size=2)
            if u != v:
                pairs.add((min(int(u), int(v)), max(int(u), int(v))))
        weights = rng.uniform(0.05, 1.0, size=len(pairs))
        return EntityGraph.from_edge_list(n, sorted(pairs), weights)

    return build()


class TestKHopProperties:
    @given(graph_strategy(), st.integers(0, 4), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_scores_bounded_and_paths_valid(self, graph, depth, seed_choice):
        seed = seed_choice % graph.num_nodes
        result = k_hop_expansion(graph, [seed], depth)
        for node, score in result.scores.items():
            assert 0 < score <= 1.0 + 1e-12
            path = result.path_to(node)
            assert path[0] == seed and path[-1] == node
            for a, b in zip(path, path[1:]):
                assert graph.has_edge(a, b)

    @given(graph_strategy(), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_deeper_expansion_is_superset(self, graph, seed_choice):
        seed = seed_choice % graph.num_nodes
        shallow = set(k_hop_expansion(graph, [seed], 1).scores)
        deep = set(k_hop_expansion(graph, [seed], 3).scores)
        assert shallow <= deep

    @given(graph_strategy(), st.integers(0, 4), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_expansion_matches_reference(self, graph, depth, seed_choice):
        """The reference multiplies the float32 weights an artifact stores,
        so the graph is given float32-representable weights. An
        :class:`EntityGraph` keeps its rows in insertion order, not
        neighbour order, so each hop is compared as a set; the scores and
        parents are order-free."""
        seed = seed_choice % graph.num_nodes
        lo, hi = graph.canonical_pairs()
        weights = graph.weight.astype(np.float32).astype(np.float64)
        graph = EntityGraph(graph.num_nodes, lo, hi, weights, graph.relation)
        edges = list(zip(lo.tolist(), hi.tolist(), weights.tolist()))
        seeds, hops, scores, parents = expansion_key(k_hop_expansion(graph, [seed], depth))
        want = reference_expansion(graph.num_nodes, edges, [seed], depth)
        assert seeds == want[0]
        assert [set(hop) for hop in hops] == [set(hop) for hop in want[1]]
        assert (scores, parents) == (want[2], want[3])


class TestGraphSetProperties:
    @given(graph_strategy(), graph_strategy())
    @settings(max_examples=25, deadline=None)
    def test_union_contains_both(self, a, b):
        n = max(a.num_nodes, b.num_nodes)

        def lift(g):
            lo, hi = g.canonical_pairs()
            return EntityGraph(n, lo, hi, g.weight, g.relation)

        a, b = lift(a), lift(b)
        merged = a.union(b)
        assert merged.edge_key_set() == a.edge_key_set() | b.edge_key_set()

    @given(graph_strategy())
    @settings(max_examples=25, deadline=None)
    def test_remove_then_check_disjoint(self, graph):
        lo, hi = graph.canonical_pairs()
        half = [(int(a), int(b)) for a, b in zip(lo[::2], hi[::2])]
        pruned = graph.remove_edges(half)
        assert pruned.edge_key_set() == graph.edge_key_set() - set(half)


class TestPreferenceBruteForce:
    @given(st.integers(0, 500), st.integers(2, 8), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_topk_matches_bruteforce(self, seed, num_entities, k):
        rng = np.random.default_rng(seed)
        num_users = 6
        embeddings = rng.normal(size=(num_entities, 4))
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, num_entities, size=3)))
            for u in range(num_users - 1)  # one user stays uncovered
        }
        store = PreferenceStore(embeddings, direct_weight=2.0).build(sequences, num_users)
        ids = [int(e) for e in rng.choice(num_entities, size=min(3, num_entities), replace=False)]
        scores = reference_scores(
            embeddings, sequences, num_users, ids, direct_weight=2.0
        )
        assert_matches_reference(
            store.top_users_for_entities(ids, k=k), scores, k, sequences
        )
