"""TRMP pipeline orchestration (weekly runs + ensemble)."""

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import NotFittedError
from repro.eval import AnnotatorPanel
from repro.graph import RELATION_RANKED
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig, TRMPipeline


@pytest.fixture(scope="module")
def fast_config():
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=8, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=4, seed=3)),
        alpc=ALPCConfig(epochs=20, seed=1),
        ensemble=EnsembleConfig(epochs=15, seed=0),
        ensemble_window=3,
    )


@pytest.fixture(scope="module")
def pipeline(world, fast_config):
    return TRMPipeline(world, fast_config)


@pytest.fixture(scope="module")
def two_weeks(pipeline, world):
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=5))
    runs = [pipeline.run_week(generator.generate_week(w)) for w in range(2)]
    return runs


class TestWeeklyRuns:
    def test_empty_pipeline_guards(self, world, fast_config):
        fresh = TRMPipeline(world, fast_config)
        with pytest.raises(NotFittedError):
            fresh.latest_graph()
        with pytest.raises(NotFittedError):
            fresh.entity_embeddings()
        with pytest.raises(NotFittedError):
            fresh.train_ensemble()

    def test_runs_are_recorded(self, pipeline, two_weeks):
        assert [run.week for run in two_weeks] == [0, 1]
        assert pipeline.weekly_runs[:2] == two_weeks

    def test_ranked_graph_is_subset_of_candidates(self, two_weeks):
        run = two_weeks[0]
        for u, v in zip(*run.ranked_graph.canonical_pairs()):
            assert run.candidate.graph.has_edge(int(u), int(v))
        assert (run.ranked_graph.relation == RELATION_RANKED).all()

    def test_ranking_improves_relation_accuracy(self, world, two_weeks):
        panel = AnnotatorPanel(world)
        run = two_weeks[0]
        lo, hi = run.candidate.graph.canonical_pairs()
        candidate_acc = panel.evaluate_relations(
            np.stack([lo, hi], 1), sample_size=300, rng=0
        ).acc
        lo, hi = run.ranked_graph.canonical_pairs()
        ranked_acc = panel.evaluate_relations(
            np.stack([lo, hi], 1), sample_size=300, rng=0
        ).acc
        assert ranked_acc > candidate_acc

    def test_snapshot_embeddings_shape(self, world, two_weeks):
        z = two_weeks[0].snapshot_embeddings
        assert z.shape[0] == world.num_entities


class TestEnsembleIntegration:
    def test_train_ensemble_and_embeddings(self, pipeline, world, two_weeks):
        ensemble = pipeline.train_ensemble()
        h = pipeline.entity_embeddings()
        dim = two_weeks[0].snapshot_embeddings.shape[1]
        assert h.shape == (world.num_entities, 2 * dim)
        assert pipeline.ensemble is ensemble

    def test_latest_graph_comes_from_last_week(self, pipeline, two_weeks):
        assert pipeline.latest_graph() is two_weeks[-1].ranked_graph


class TestFeedback:
    def test_feedback_pairs_added_to_training(self, world, fast_config):
        pipeline = TRMPipeline(world, fast_config)
        generator = BehaviorLogGenerator(world, BehaviorConfig(seed=7))
        events = generator.generate_week(0)
        e_co = pipeline.build_cooccurrence(events)
        candidate = pipeline.build_candidate(e_co)
        feedback = np.array([[0, 1], [2, 3]])
        split = pipeline.rank_candidates(candidate, feedback_pairs=feedback)["split"]
        keys = {tuple(p) for p in split.train_pos}
        assert (0, 1) in keys and (2, 3) in keys
