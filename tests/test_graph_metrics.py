"""Graph structural metrics."""

import numpy as np
import pytest

from repro.graph import (
    EntityGraph,
    connected_components,
    local_clustering,
    mean_clustering,
    summarize_graph,
)


@pytest.fixture()
def two_triangles():
    # Triangle 0-1-2, triangle 3-4-5, isolated node 6.
    return EntityGraph.from_edge_list(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


class TestComponents:
    def test_counts_components(self, two_triangles):
        components = connected_components(two_triangles)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3, 3]

    def test_components_partition_nodes(self, two_triangles):
        components = connected_components(two_triangles)
        all_nodes = sorted(n for c in components for n in c)
        assert all_nodes == list(range(7))

    def test_empty_graph(self):
        g = EntityGraph.from_edge_list(3, [])
        assert len(connected_components(g)) == 3


class TestClustering:
    def test_triangle_is_fully_clustered(self, two_triangles):
        assert local_clustering(two_triangles, 0) == 1.0

    def test_path_has_zero_clustering(self):
        g = EntityGraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert local_clustering(g, 1) == 0.0

    def test_degree_below_two_is_zero(self, two_triangles):
        assert local_clustering(two_triangles, 6) == 0.0

    def test_mean_clustering_matches_networkx(self, two_triangles):
        import networkx as nx

        ours = mean_clustering(two_triangles, sample=None)
        theirs = nx.average_clustering(two_triangles.to_networkx())
        assert ours == pytest.approx(theirs)

    def test_sampled_clustering_runs(self, two_triangles):
        value = mean_clustering(two_triangles, sample=3)
        assert 0.0 <= value <= 1.0


class TestSummary:
    def test_summary_fields(self, two_triangles):
        summary = summarize_graph(two_triangles)
        assert summary.num_nodes == 7
        assert summary.num_edges == 6
        assert summary.isolated_nodes == 1
        assert summary.num_components == 3
        assert summary.largest_component == 3
        assert summary.max_degree == 2
        assert summary.density == pytest.approx(6 / 21)
        assert "components 3" in summary.to_text()

    def test_mined_graph_is_clustered(self, candidate, world):
        # Topic structure should produce clustering far above an ER graph
        # of the same density.
        summary = summarize_graph(candidate.graph)
        assert summary.mean_clustering > summary.density * 2

