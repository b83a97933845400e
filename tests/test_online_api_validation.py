"""API edge validation and artifact-version echo in the response envelope."""

import json
import math

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture(scope="module")
def service(world, tmp_path_factory):
    """An EGLService over hand-activated artifacts — no TRMP training."""
    system = EGLSystem(world, artifact_root=tmp_path_factory.mktemp("registry"))
    graph = EntityGraph.from_edge_list(
        world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
    )
    reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
    system.runtime.activate_graph(reasoner, version=3, tag="week-2")
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(30)
    }
    prefs = PreferenceStore(embeddings).build(sequences, world.num_users)
    system.runtime.activate_preferences(prefs, version=5, tag="daily-5")
    return EGLService(system)


class TestValidation:
    def test_non_positive_depth_rejected(self, service, world):
        for depth in (0, -1):
            response = service.expand({"phrases": [world.entities[0].name], "depth": depth})
            assert not response.ok
            assert "depth" in response.error

    def test_non_positive_max_entities_rejected(self, service, world):
        response = service.expand({"phrases": [world.entities[0].name], "max_entities": 0})
        assert not response.ok
        assert "max_entities" in response.error

    def test_non_finite_min_score_rejected(self, service, world):
        for bad in (math.nan, math.inf, -math.inf):
            response = service.expand({"phrases": [world.entities[0].name], "min_score": bad})
            assert not response.ok
            assert "min_score" in response.error

    def test_non_positive_k_rejected(self, service):
        response = service.target({"entity_ids": [0], "k": 0})
        assert not response.ok
        assert "k must be" in response.error

    def test_non_finite_weights_rejected(self, service):
        response = service.target({"entity_ids": [0, 1], "k": 5, "weights": [0.5, math.nan]})
        assert not response.ok
        assert "finite" in response.error

    def test_misaligned_weights_rejected(self, service):
        response = service.target({"entity_ids": [0, 1], "k": 5, "weights": [0.5]})
        assert not response.ok
        assert "align" in response.error

    def test_error_envelope_is_serialisable(self, service, world):
        response = service.expand({"phrases": [world.entities[0].name], "depth": -2})
        payload = response.to_dict()
        json.dumps(payload)
        assert payload["ok"] is False and payload["payload"] == {}


class TestVersionEcho:
    def test_success_reports_active_versions(self, service, world):
        response = service.expand({"phrases": [world.entities[0].name]})
        assert response.ok
        assert response.graph_version == 3
        assert response.preference_version == 5

    def test_error_envelope_also_reports_versions(self, service):
        response = service.target({"entity_ids": [0], "k": -1})
        assert not response.ok
        assert response.graph_version == 3
        assert response.preference_version == 5

    def test_fresh_system_reports_none(self, world, tmp_path):
        fresh = EGLService(EGLSystem(world, artifact_root=tmp_path))
        response = fresh.target({"entity_ids": [0], "k": 5})
        assert not response.ok  # nothing activated yet
        assert response.graph_version is None
        assert response.preference_version is None

    def test_batch_endpoint(self, service):
        response = service.target_batch(
            {"requests": [{"entity_ids": [0, 1], "k": 4}, {"entity_ids": [2], "k": 4}]}
        )
        assert response.ok
        assert len(response.payload["results"]) == 2
        assert all(len(r["users"]) == 4 for r in response.payload["results"])
        assert response.graph_version == 3

    def test_batch_requires_shared_k(self, service):
        response = service.target_batch(
            {"requests": [{"entity_ids": [0], "k": 4}, {"entity_ids": [1], "k": 5}]}
        )
        assert not response.ok
        assert "one k" in response.error


# ----------------------------------------------------------------------
# Entity ids are checked once, at the API boundary
# ----------------------------------------------------------------------
SMALL_ENTITIES = 40

#: id → why it names no entity of a 40-entity world.
NOT_ENTITIES = {
    "negative": -1,  # would wrap around to entity 39
    "float": 2.7,  # would be truncated to entity 2
    "string": "3",
    "bool": True,
    "past-the-end": SMALL_ENTITIES,  # would index past the arrays
}

BODIES = {
    "target": lambda bad: {"entity_ids": [1, bad], "k": 5},
    "target_batch": lambda bad: {
        "requests": [{"entity_ids": [1], "k": 5}, {"entity_ids": [bad], "k": 5}]
    },
    "feedback-seed": lambda bad: {"seed_entity_id": bad, "chosen_entity_ids": [1]},
    "feedback-chosen": lambda bad: {"seed_entity_id": 3, "chosen_entity_ids": [1, bad]},
}

CASES = [
    pytest.param(route, bad, False, id=f"{route}-{name}")
    for route in BODIES for name, bad in NOT_ENTITIES.items()
] + [
    # A recorded out-of-range pair would make every later weekly refresh
    # fail and keep the pair for the next one.
    pytest.param("feedback-chosen", 1_000_000, True, id="feedback-poison-then-refresh"),
]


@pytest.fixture(scope="module")
def small_stack(tmp_path_factory):
    """A 40-entity world behind the front end, hand-activated, with a
    week of behaviour for one real refresh."""
    from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
    from repro.embeddings import SkipGramConfig
    from repro.embeddings.mlm import MLMConfig
    from repro.embeddings.semantic import SemanticEncoderConfig
    from repro.serving.frontend import QueryFrontend
    from repro.trmp import ALPCConfig, TRMPConfig

    world = World(WorldConfig(num_entities=SMALL_ENTITIES, num_users=30, seed=3))
    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=2, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=1, seed=3)),
        alpc=ALPCConfig(epochs=4, seed=1),
    )
    system = EGLSystem(world, config, artifact_root=tmp_path_factory.mktemp("registry"))
    graph = EntityGraph.from_edge_list(SMALL_ENTITIES, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0])
    system.runtime.activate_graph(GraphReasoner(graph, system.pipeline.entity_dict), 1)
    rng = np.random.default_rng(0)
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, SMALL_ENTITIES, size=6)))
        for u in range(world.num_users)
    }
    system.runtime.activate_preferences(
        PreferenceStore(rng.normal(size=(SMALL_ENTITIES, 6))).build(sequences, world.num_users),
        1,
    )
    events = BehaviorLogGenerator(world, BehaviorConfig(num_days=7, seed=4)).generate()
    return QueryFrontend(EGLService(system)), events


@pytest.mark.parametrize("route, bad, refresh", CASES)
def test_ids_that_name_no_entity_are_refused_and_not_recorded(small_stack, route, bad, refresh):
    frontend, events = small_stack
    system = frontend.service.system
    status, envelope = frontend.dispatch(route.split("-")[0], BODIES[route](bad))
    assert (status, envelope["code"]) == (400, "invalid_argument")
    assert "entity ids" in envelope["error"]
    assert len(system.feedback) == 0  # nothing recorded
    if refresh:
        report = system.weekly_refresh(events)
        assert not report.swap_rejected and report.num_relations > 0
