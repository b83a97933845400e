"""Cross-module property tests on randomly generated graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_model import assert_matches_reference, reference_scores
from repro.graph import EntityGraph, k_hop_expansion, k_hop_subgraph
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

    @given(graph_strategy(), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_subgraph_nodes_match_expansion(self, graph, seed_choice):
        seed = seed_choice % graph.num_nodes
        sub, expansion, node_ids = k_hop_subgraph(graph, [seed], 2)
        assert set(node_ids.tolist()) == set(expansion.scores)
        assert sub.num_nodes == len(node_ids)
        # Every subgraph edge exists in the parent graph.
        lo, hi = sub.canonical_pairs()
        for a, b in zip(lo, hi):
            assert graph.has_edge(int(node_ids[a]), int(node_ids[b]))


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
