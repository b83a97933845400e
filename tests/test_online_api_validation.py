"""API edge validation and artifact-version echo in the response envelope."""

import json
import math

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.online import EGLSystem
from repro.online.api import EGLService, ExpandRequest, TargetRequest
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture(scope="module")
def service(world):
    """An EGLService over hand-activated artifacts — no TRMP training."""
    system = EGLSystem(world)
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
            response = service.expand(
                ExpandRequest(phrases=[world.entities[0].name], depth=depth)
            )
            assert not response.ok
            assert "depth" in response.error

    def test_non_positive_max_entities_rejected(self, service, world):
        response = service.expand(
            ExpandRequest(phrases=[world.entities[0].name], max_entities=0)
        )
        assert not response.ok
        assert "max_entities" in response.error

    def test_non_finite_min_score_rejected(self, service, world):
        for bad in (math.nan, math.inf, -math.inf):
            response = service.expand(
                ExpandRequest(phrases=[world.entities[0].name], min_score=bad)
            )
            assert not response.ok
            assert "min_score" in response.error

    def test_non_positive_k_rejected(self, service):
        response = service.target(TargetRequest(entity_ids=[0], k=0))
        assert not response.ok
        assert "k must be" in response.error

    def test_non_finite_weights_rejected(self, service):
        response = service.target(
            TargetRequest(entity_ids=[0, 1], k=5, weights=[0.5, math.nan])
        )
        assert not response.ok
        assert "finite" in response.error

    def test_misaligned_weights_rejected(self, service):
        response = service.target(
            TargetRequest(entity_ids=[0, 1], k=5, weights=[0.5])
        )
        assert not response.ok
        assert "align" in response.error

    def test_error_envelope_is_serialisable(self, service, world):
        response = service.expand(
            ExpandRequest(phrases=[world.entities[0].name], depth=-2)
        )
        payload = response.to_dict()
        json.dumps(payload)
        assert payload["ok"] is False and payload["payload"] == {}


class TestVersionEcho:
    def test_success_reports_active_versions(self, service, world):
        response = service.expand(ExpandRequest(phrases=[world.entities[0].name]))
        assert response.ok
        assert response.graph_version == 3
        assert response.preference_version == 5

    def test_error_envelope_also_reports_versions(self, service):
        response = service.target(TargetRequest(entity_ids=[0], k=-1))
        assert not response.ok
        assert response.graph_version == 3
        assert response.preference_version == 5

    def test_fresh_system_reports_none(self, world):
        fresh = EGLService(EGLSystem(world))
        response = fresh.target(TargetRequest(entity_ids=[0], k=5))
        assert not response.ok  # nothing activated yet
        assert response.graph_version is None
        assert response.preference_version is None

    def test_batch_endpoint(self, service):
        response = service.target_batch(
            [
                TargetRequest(entity_ids=[0, 1], k=4),
                TargetRequest(entity_ids=[2], k=4),
            ]
        )
        assert response.ok
        assert len(response.payload["results"]) == 2
        assert all(len(r["users"]) == 4 for r in response.payload["results"])
        assert response.graph_version == 3

    def test_batch_requires_shared_k(self, service):
        response = service.target_batch(
            [
                TargetRequest(entity_ids=[0], k=4),
                TargetRequest(entity_ids=[1], k=5),
            ]
        )
        assert not response.ok
        assert "one k" in response.error
