"""EntityGraph: construction invariants, CSR adjacency, set operations."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    RELATION_BOTH,
    RELATION_COOCCURRENCE,
    RELATION_SEMANTIC,
    EntityGraph,
)


def random_graph(seed: int, n: int = 12, m: int = 20) -> EntityGraph:
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    pairs = sorted(pairs)
    weights = rng.random(len(pairs)) + 0.01
    return EntityGraph.from_edge_list(n, pairs, weights)


class TestConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            EntityGraph(3, np.array([0]), np.array([0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            EntityGraph(3, np.array([0]), np.array([5]))

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphError):
            EntityGraph(3, np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphError):
            EntityGraph(3, np.array([0]), np.array([1]), weight=np.ones(2))

    def test_empty_graph(self):
        g = EntityGraph.from_edge_list(5, [])
        assert g.num_edges == 0
        nbrs, w = g.neighbors(0)
        assert len(nbrs) == 0

    def test_from_edge_list_dedupes_keeping_max_weight(self):
        g = EntityGraph.from_edge_list(4, [(0, 1), (1, 0)], weights=[0.2, 0.9])
        assert g.num_edges == 1
        assert g.weight[0] == pytest.approx(0.9)

    def test_dedupe_keeps_max_relation(self):
        g = EntityGraph.from_edge_list(
            4, [(0, 1), (0, 1)], relations=[RELATION_COOCCURRENCE, RELATION_BOTH]
        )
        assert g.relation[0] == RELATION_BOTH


class TestAdjacency:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_neighbors_symmetric(self, seed):
        g = random_graph(seed)
        for u in range(g.num_nodes):
            nbrs, _ = g.neighbors(u)
            for v in nbrs:
                back, _ = g.neighbors(int(v))
                assert u in back

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_degrees_sum_to_twice_edges(self, seed):
        g = random_graph(seed)
        assert g.degrees().sum() == 2 * g.num_edges

    def test_neighbor_weights_align(self):
        g = EntityGraph.from_edge_list(3, [(0, 1), (1, 2)], weights=[0.5, 0.9])
        nbrs, weights = g.neighbors(1)
        lookup = dict(zip(nbrs.tolist(), weights.tolist()))
        assert lookup[0] == pytest.approx(0.5)
        assert lookup[2] == pytest.approx(0.9)

    def test_neighbors_out_of_range(self):
        g = random_graph(0)
        with pytest.raises(GraphError):
            g.neighbors(99)

    def test_has_edge_and_key_set(self):
        g = EntityGraph.from_edge_list(4, [(2, 1)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 3)
        assert g.edge_key_set() == {(1, 2)}

    def test_directed_edges_doubles(self):
        g = random_graph(1)
        s, d, r = g.directed_edges()
        assert len(s) == 2 * g.num_edges
        assert set(zip(s.tolist(), d.tolist())) == set(
            zip(d.tolist(), s.tolist())
        )


class TestOperations:
    def test_remove_edges(self):
        g = EntityGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        g2 = g.remove_edges([(2, 1)])
        assert g2.num_edges == 2
        assert not g2.has_edge(1, 2)
        assert g.num_edges == 3  # original untouched

    def test_union_max_weight(self):
        a = EntityGraph.from_edge_list(4, [(0, 1)], weights=[0.3])
        b = EntityGraph.from_edge_list(4, [(0, 1), (2, 3)], weights=[0.8, 0.5])
        u = a.union(b)
        assert u.num_edges == 2
        lo, hi = u.canonical_pairs()
        w = dict(zip(zip(lo.tolist(), hi.tolist()), u.weight.tolist()))
        assert w[(0, 1)] == pytest.approx(0.8)

    def test_union_requires_same_node_count(self):
        with pytest.raises(GraphError):
            EntityGraph.from_edge_list(3, []).union(EntityGraph.from_edge_list(4, []))

    def test_subgraph_relabels(self):
        g = EntityGraph.from_edge_list(5, [(0, 1), (1, 4), (2, 3)])
        sub, ids = g.subgraph([1, 4, 2])
        assert sub.num_nodes == 3
        assert list(ids) == [1, 2, 4]
        # Only the (1, 4) edge survives, relabelled to (0, 2).
        assert sub.num_edges == 1
        assert sub.has_edge(0, 2)

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_to_networkx_round_trip(self, seed):
        g = random_graph(seed)
        nx_graph = g.to_networkx()
        assert nx_graph.number_of_nodes() == g.num_nodes
        assert nx_graph.number_of_edges() == g.num_edges
        for u, v in nx_graph.edges():
            assert g.has_edge(u, v)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_unpickled_graph_pickles_to_the_same_bytes(self, seed):
        """Stage payloads cross a process boundary and are pickled again for
        their checkpoint digest: the edge-key set must not come back in
        another iteration order."""
        g = random_graph(seed, n=60, m=300)
        data = pickle.dumps(g, protocol=5)
        again = pickle.loads(data)
        assert pickle.dumps(again, protocol=5) == data
        assert again.edge_key_set() == g.edge_key_set()

    def test_canonical_pairs_ordered(self):
        g = EntityGraph(4, np.array([3, 2]), np.array([1, 0]))
        lo, hi = g.canonical_pairs()
        assert (lo < hi).all()
