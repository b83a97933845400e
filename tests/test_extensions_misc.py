"""The serving API facade over a trained system."""

import pytest

from repro.online.api import EGLService


class TestServiceAPI:
    @pytest.fixture(scope="class")
    def service(self, world, tmp_path_factory):
        from repro.datasets import BehaviorConfig, BehaviorLogGenerator
        from repro.embeddings import SkipGramConfig
        from repro.embeddings.mlm import MLMConfig
        from repro.embeddings.semantic import SemanticEncoderConfig
        from repro.online import EGLSystem
        from repro.trmp import ALPCConfig, TRMPConfig

        config = TRMPConfig(
            skipgram=SkipGramConfig(epochs=6, seed=2),
            semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=3, seed=3)),
            alpc=ALPCConfig(epochs=10, seed=1),
        )
        system = EGLSystem(world, config, artifact_root=tmp_path_factory.mktemp("registry"))
        events = BehaviorLogGenerator(world, BehaviorConfig(seed=5)).generate()
        system.weekly_refresh(events)
        system.daily_preference_refresh(events)
        return EGLService(system)

    def test_health(self, service):
        response = service.health()
        assert response.ok
        assert response.payload["weekly_runs"] == 1
        assert response.payload["preferences_ready"]

    def test_expand_payload_serialisable(self, service, world):
        phrase = world.entities[0].name
        response = service.expand({"phrases": [phrase], "depth": 2})
        assert response.ok
        import json

        json.dumps(response.to_dict())  # fully serialisable
        assert response.payload["seeds"] == [phrase.lower()]
        assert all("path" in e for e in response.payload["entities"])

    def test_expand_error_envelope(self, service):
        response = service.expand({"phrases": [""], "depth": 1})
        # Blank phrase resolves nothing OR hits the semantic fallback —
        # either a clean error envelope or a valid payload, never a raise.
        assert isinstance(response.ok, bool)
        if not response.ok:
            assert response.error

    def test_target_flow(self, service):
        expand = service.expand({"phrases": [service.system.world.entities[1].name]})
        ids = [e["entity_id"] for e in expand.payload["entities"]][:5]
        response = service.target({"entity_ids": ids, "k": 7})
        assert response.ok
        assert len(response.payload["users"]) == 7

    def test_target_validation_error(self, service):
        response = service.target({"entity_ids": [], "k": 5})
        assert not response.ok
        assert "entity" in response.error

    def test_feedback_recorded(self, service):
        response = service.record_feedback(
            {"seed_entity_id": 0, "chosen_entity_ids": [1, 2]}
        )
        assert response.ok
        assert response.payload["recorded"] == 2
