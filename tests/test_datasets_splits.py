"""Link-prediction splits and benchmark dataset sampling."""

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, WorldConfig, make_link_prediction_split
from repro.datasets.benchmark_data import (
    DEFAULT_SAMPLING_RATIOS,
    build_dataset_m,
    sample_sub_datasets,
)
from repro.errors import ConfigError


class TestSplit:
    def test_sizes_follow_protocol(self, candidate):
        split = make_link_prediction_split(candidate.graph, test_fraction=0.1, rng=0)
        total = candidate.graph.num_edges
        assert len(split.test_pos) == round(total * 0.1)
        assert split.train_graph.num_edges == total - len(split.test_pos)
        assert len(split.test_neg) == len(split.test_pos)
        assert len(split.train_neg) == round(len(split.train_pos) * 3.0)

    def test_train_graph_excludes_test_edges(self, split):
        for u, v in split.test_pos[:100]:
            assert not split.train_graph.has_edge(int(u), int(v))

    def test_negatives_are_non_edges(self, candidate, split):
        for u, v in split.test_neg[:100]:
            assert not candidate.graph.has_edge(int(u), int(v))
        for u, v in split.train_neg[:100]:
            assert not candidate.graph.has_edge(int(u), int(v))

    def test_test_and_train_negatives_disjoint(self, split):
        test_keys = {tuple(p) for p in split.test_neg}
        train_keys = {tuple(p) for p in split.train_neg}
        assert not (test_keys & train_keys)

    def test_pairs_and_labels_helpers(self, split):
        pairs, labels = split.train_pairs_and_labels()
        assert len(pairs) == len(split.train_pos) + len(split.train_neg)
        assert labels[: len(split.train_pos)].all()
        assert not labels[len(split.train_pos) :].any()

    def test_invalid_fraction(self, candidate):
        with pytest.raises(ConfigError):
            make_link_prediction_split(candidate.graph, test_fraction=0.0)


class TestBenchmarkDatasets:
    @pytest.fixture(scope="class")
    def bundle(self):
        return build_dataset_m(
            WorldConfig(num_entities=120, num_users=80, seed=1),
            BehaviorConfig(num_days=10, seed=2),
        )

    def test_bundle_has_candidate_graph(self, bundle):
        assert bundle.graph.num_edges > 0
        assert bundle.candidate.node_features.shape[0] == bundle.world.num_entities

    def test_sampled_sizes_track_ratios(self, bundle):
        datasets = sample_sub_datasets(bundle, seed=3)
        sizes = {name: ds.num_entities for name, ds in datasets.items()}
        assert sizes["A"] > sizes["C"] > sizes["B"]
        for name, ratio in DEFAULT_SAMPLING_RATIOS.items():
            expected = round(bundle.graph.num_nodes * ratio)
            assert abs(sizes[name] - expected) <= 1

    def test_features_aligned_with_subgraph(self, bundle):
        datasets = sample_sub_datasets(bundle, seed=3)
        ds = datasets["B"]
        assert ds.features.shape[0] == ds.num_entities
        original = bundle.candidate.node_features[ds.node_ids]
        np.testing.assert_allclose(ds.features, original)

    def test_invalid_ratio_raises(self, bundle):
        with pytest.raises(ConfigError):
            sample_sub_datasets(bundle, ratios={"X": 1.5})
