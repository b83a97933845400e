"""EGLSystem end-to-end integration (offline refresh → online targeting)."""

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import NotFittedError
from repro.graph import EntityGraph
from repro.online import EGLSystem, target_users_for_phrases
from repro.simulation import ABTestHarness, ConversionModel, RuleBasedTargeting, default_services
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig


@pytest.fixture(scope="module")
def system(world, tmp_path_factory):
    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=8, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=4, seed=3)),
        alpc=ALPCConfig(epochs=20, seed=1),
        ensemble=EnsembleConfig(epochs=12, seed=0),
    )
    return EGLSystem(world, config, artifact_root=tmp_path_factory.mktemp("registry"))


@pytest.fixture(scope="module")
def generator(world):
    return BehaviorLogGenerator(world, BehaviorConfig(seed=5))


@pytest.fixture(scope="module")
def refreshed(system, generator):
    reports = [system.weekly_refresh(generator.generate_week(w)) for w in range(2)]
    recent = generator.generate(start_day=50, num_days=30, rng=77)
    covered = system.daily_preference_refresh(recent)
    return reports, covered, recent


class TestOfflineCadence:
    def test_weekly_reports(self, refreshed):
        reports, _, _ = refreshed
        assert reports[0].week == 0 and reports[1].week == 1
        assert reports[0].graph_version == 1 and reports[1].graph_version == 2
        assert not reports[0].ensemble_trained
        assert reports[1].ensemble_trained
        assert all(r.num_relations > 0 for r in reports)

    def test_store_versions_match_weeks(self, system, refreshed):
        records = system.registry.records("graph")
        assert [r.tag for r in records] == ["week-0", "week-1"]

    def test_daily_refresh_covers_users(self, refreshed, world):
        _, covered, _ = refreshed
        assert covered > world.num_users * 0.8

    def test_targeting_before_daily_refresh_raises(self, world, tmp_path):
        fresh = EGLSystem(world, artifact_root=tmp_path)
        with pytest.raises(NotFittedError):
            fresh.runtime.target(fresh.runtime.acquire(), [0], k=5)


class TestOnlineFlow:
    def test_expand_uses_stored_graph(self, system, refreshed, world):
        entity = world.entities[0]
        view = system.runtime.expand(system.runtime.acquire(), [entity.name], depth=2)
        assert view.seeds == [entity.name.lower()]
        assert len(view.entities) >= 1

    def test_target_users_for_phrases(self, system, refreshed, world):
        entity = world.entities[1]
        view, result = target_users_for_phrases(
            system.runtime.acquire(), [entity.name], depth=2, k=15
        )
        assert len(result.users) == 15
        assert result.elapsed_seconds < 5.0
        scores = [u.score for u in result.users]
        assert scores == sorted(scores, reverse=True)

    def test_cold_phrase_resolves_semantically(self, system, refreshed, world):
        word = world.topic_words[2][0]
        view = system.runtime.expand(system.runtime.acquire(), [f"{word} {word}"], depth=1)
        assert len(view.entities) >= 1

    def test_record_choice_feeds_next_week(self, system, refreshed, generator):
        system.record_choice(0, [5, 9])
        assert len(system.feedback) == 2
        report = system.weekly_refresh(generator.generate_week(2))
        assert report.week == 2
        assert len(system.feedback) == 0  # drained into training

    def test_targeted_users_have_high_affinity(self, system, refreshed, world):
        services = default_services(world, rng=3)
        service = services[0]
        _, result = target_users_for_phrases(
            system.runtime.acquire(), service.phrases, depth=2, k=25
        )
        aff = service.user_affinity(world)
        assert aff[np.array(result.user_ids)].mean() > aff.mean() * 1.3


class TestABHarness:
    def test_rows_have_sane_fields(self, system, refreshed, world):
        _, _, recent = refreshed
        services = default_services(world, rng=3)[:2]
        rule = RuleBasedTargeting(world, system.pipeline.entity_dict, recent)
        harness = ABTestHarness(world, system, rule, ConversionModel(world))
        rows = harness.run(services, audience_size=30, repetitions=3, rng=5)
        assert len(rows) == 2
        for row in rows:
            assert row.egl_conversions >= 0
            assert 0 <= row.egl_cvr <= 1
            assert 0 <= row.control_cvr <= 1
            assert row.running_time_seconds < 10
            assert row.exposure_delta_pct == pytest.approx(0.0)


def served_edges(graph) -> dict:
    """``(lo, hi) -> (float32 weight, relation)`` of an in-memory graph or
    a frozen CSR generation."""
    if not isinstance(graph, EntityGraph):
        graph = graph.graph()
    lo, hi = graph.canonical_pairs()
    table = {
        (int(a), int(b)): (np.float32(w), int(r))
        for a, b, w, r in zip(lo, hi, graph.weight, graph.relation)
    }
    assert len(table) == graph.num_edges
    return table


@pytest.mark.parametrize(
    "construction", ["artifact_root", "store_path+artifact_root"]
)
def test_published_generation_is_the_weeks_trmp_graph(construction, tmp_path):
    """Generation N is exactly week N's ranked graph, never a union with
    the weeks before it — however the system is constructed (the last
    case is the e2e benchmark's)."""
    world = World(WorldConfig(num_entities=60, num_users=50, seed=9))
    generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=7, seed=4))
    roots = {
        "artifact_root": {"artifact_root": tmp_path / "registry"},
        "store_path+artifact_root": {
            "store_path": tmp_path / "store", "artifact_root": tmp_path / "registry",
        },
    }[construction]
    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=4, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=2, seed=3)),
        alpc=ALPCConfig(epochs=8, seed=1),
        ensemble=EnsembleConfig(epochs=4, seed=0),
    )
    system = EGLSystem(world, config, **roots)
    for week in range(3):
        report = system.weekly_refresh(generator.generate_week(week))
        ranked = system.pipeline.weekly_runs[-1].ranked_graph
        served = system.registry.open_graph(report.graph_version)
        assert 0 < served.num_edges == report.num_relations == ranked.num_edges
        assert served_edges(served) == served_edges(ranked)
