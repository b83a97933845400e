"""k-hop expansion over the serving format, each case checked against the
oracle (``reference_model.reference_expansion``) as well as spelled out."""

import numpy as np
import pytest

from reference_model import expansion_key, reference_expansion
from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph import k_hop_expansion as kernel


def frozen(num_nodes, pairs, weights):
    """The serving artifact of an edge list, which it keeps for the oracle."""
    graph = CSRGraph.from_edges(num_nodes, np.array(pairs), weights)
    graph.edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
    return graph


def k_hop_expansion(graph, seeds, depth, **kwargs):
    """The kernel's answer, after proving it equals the oracle's."""
    result = kernel(graph, seeds, depth, **kwargs)
    assert expansion_key(result) == reference_expansion(
        graph.num_nodes, graph.edges, seeds, depth, **kwargs
    )
    return result


@pytest.fixture()
def chain_graph():
    # 0 - 1 - 2 - 3 with decreasing confidences.
    return frozen(5, [(0, 1), (1, 2), (2, 3)], [0.9, 0.8, 0.7])


class TestExpansion:
    def test_depth_zero_returns_seeds(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 0)
        assert result.hops == [[0]]
        assert result.scores == {0: 1.0}

    def test_scores_multiply_along_path(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3)
        assert result.scores[1] == pytest.approx(0.9)
        assert result.scores[2] == pytest.approx(0.9 * 0.8)
        assert result.scores[3] == pytest.approx(0.9 * 0.8 * 0.7)

    def test_hops_record_first_reach(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3)
        assert result.hops[1] == [1]
        assert result.hops[2] == [2]
        assert result.depth_of(2) == 2

    def test_path_explanation(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3)
        assert result.path_to(3) == [0, 1, 2, 3]
        assert result.path_to(0) == [0]

    def test_unreached_entity_raises(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 1)
        with pytest.raises(GraphError):
            result.path_to(3)
        with pytest.raises(GraphError):
            result.depth_of(4)

    def test_multiple_seeds_deduplicated(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0, 0, 1], 1)
        assert result.seeds == [0, 1]
        assert result.scores[0] == 1.0 and result.scores[1] == 1.0

    def test_best_parent_updates(self):
        # Two paths to node 3: 0-1-3 (0.9*0.2) and 0-2-3 (0.5*0.9).
        g = frozen(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], [0.9, 0.5, 0.2, 0.9]
        )
        result = k_hop_expansion(g, [0], 2)
        assert result.scores[3] == pytest.approx(0.45)
        assert result.path_to(3) == [0, 2, 3]

    def test_min_edge_weight_prunes(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3, min_edge_weight=0.85)
        assert 2 not in result.scores

    def test_max_neighbors_cap(self):
        g = frozen(
            6, [(0, i) for i in range(1, 6)], [0.9, 0.8, 0.7, 0.6, 0.5]
        )
        result = k_hop_expansion(g, [0], 1, max_neighbors_per_node=2)
        reached = set(result.scores) - {0}
        assert reached == {1, 2}  # strongest two edges only

    def test_entities_sorted_by_score(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3)
        entities = result.entities()
        scores = [result.scores[e] for e in entities]
        assert scores == sorted(scores, reverse=True)

    def test_entities_filters(self, chain_graph):
        result = k_hop_expansion(chain_graph, [0], 3)
        assert 0 not in result.entities(exclude_seeds=True)
        assert all(result.scores[e] >= 0.7 for e in result.entities(min_score=0.7))

    def test_invalid_args(self, chain_graph):
        with pytest.raises(GraphError):
            kernel(chain_graph, [0], -1)
        with pytest.raises(GraphError):
            kernel(chain_graph, [99], 1)

    def test_frontier_exhaustion_pads_hops(self, chain_graph):
        result = k_hop_expansion(chain_graph, [4], 3)  # isolated node
        assert result.hops == [[4], [], [], []]
