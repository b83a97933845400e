"""Full-stack integration: files → offline pipeline → registry → API → explain.

One scenario exercising nearly every subsystem the way a deployment would:

1. export the world's logs and Entity Dict to files, reload them;
2. two weekly refreshes (drifted data) publishing graph generations;
3. checkpointing the ALPC model, reloading it;
4. daily preference refresh, and a rebuild after one user's behaviour moves;
5. the serving API end to end, with explanations and calibration checks.
"""

import numpy as np
import pytest

from repro.datasets import (
    BehaviorConfig,
    BehaviorLogGenerator,
    load_entity_dict,
    load_events,
    save_entity_dict,
    save_events,
)
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.eval import roc_auc
from repro.online import EGLSystem, explain_targeting
from repro.online.api import EGLService
from repro.preference import PreferenceStore
from repro.resilience import CheckpointStore
from repro.text.sequence_extractor import UserEntitySequence
from repro.trmp import ALPCConfig, ALPCModel, TRMPConfig


@pytest.fixture(scope="module")
def stack(world, tmp_path_factory):
    base = tmp_path_factory.mktemp("full_stack")
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=5))

    # 1. Data round-trips through files, as external data would arrive.
    week0 = generator.generate_week(0)
    events_path = base / "week0.jsonl"
    save_events(week0, events_path)
    week0 = load_events(events_path)

    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=8, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=4, seed=3)),
        alpc=ALPCConfig(epochs=20, seed=1),
    )
    system = EGLSystem(world, config, artifact_root=base / "registry")
    system.weekly_refresh(week0)
    system.weekly_refresh(generator.generate_week(1))
    system.daily_preference_refresh(week0 + generator.generate_week(1))
    return base, system, generator


class TestOfflineArtifacts:
    def test_registry_has_two_graph_generations(self, stack):
        _, system, _ = stack
        records = system.registry.records("graph")
        assert [(r.version, r.tag) for r in records] == [(1, "week-0"), (2, "week-1")]
        assert system.registry.open_graph().num_edges == records[-1].edges > 0

    def test_entity_dict_file_round_trip(self, stack, world):
        base, system, _ = stack
        dict_path = base / "dict.tsv"
        save_entity_dict(system.pipeline.entity_dict, dict_path)
        reloaded = load_entity_dict(dict_path)
        assert len(reloaded) == world.num_entities

    def test_alpc_checkpoint_round_trip(self, stack, world):
        base, system, _ = stack
        run = system.pipeline.weekly_runs[-1]
        store = CheckpointStore(base / "alpc-checkpoints")
        store.put("weekly-0001", "alpc_ranking", run.alpc)
        clone = CheckpointStore(base / "alpc-checkpoints").get("weekly-0001", "alpc_ranking").model
        assert isinstance(clone, ALPCModel) and clone is not run.alpc.model
        src, dst, _ = run.split.train_graph.directed_edges()
        from repro.tensor import Tensor, no_grad

        with no_grad():
            x = Tensor(run.candidate.node_features)
            a = run.alpc.model.encode(x, src, dst, world.num_entities).data
            b = clone.encode(x, src, dst, world.num_entities).data
        np.testing.assert_allclose(a, b)

    def test_link_probabilities_sane(self, stack):
        _, system, _ = stack
        run = system.pipeline.weekly_runs[-1]
        pairs, labels = run.split.test_pairs_and_labels()
        probs = run.alpc.predict_pairs(pairs)
        assert roc_auc(labels, probs) > 0.7
        assert np.mean((probs - labels) ** 2) < 0.3  # Brier score


class TestServingPath:
    def test_api_flow_with_explanations(self, stack, world):
        _, system, generator = stack
        service = EGLService(system)
        assert service.health().payload["ensemble_ready"]

        phrase = max(world.entities, key=lambda e: e.popularity).name
        expand = service.expand({"phrases": [phrase], "depth": 2})
        assert expand.ok and len(expand.payload["entities"]) >= 1

        ids = [e["entity_id"] for e in expand.payload["entities"]][:8]
        target = service.target({"entity_ids": ids, "k": 10})
        assert target.ok and len(target.payload["users"]) == 10

        # Explanations ground the selection in user histories.
        active = system.runtime.acquire()
        view = system.runtime.expand(active, [phrase], depth=2)
        result = system.runtime.target(active, ids, k=10)
        events = generator.generate_week(2)
        sequences = system.pipeline.extractor.extract_sequences(events)
        report = explain_targeting(
            view, result.users, active.preference_store, sequences,
            system.pipeline.entity_dict,
        )
        assert "top users" in report

    def test_incremental_preference_update_changes_ranking(self, stack, world):
        _, system, generator = stack
        # The served generation is a mapped, immutable artifact: a user's
        # new behaviour reaches serving through the next daily rebuild.
        sequences = system.pipeline.extractor.extract_sequences(generator.generate_week(1))
        target_entity = world.entities[0].entity_id
        # Make an arbitrary user the heaviest interactor with that entity.
        user = 3
        sequences[user] = UserEntitySequence(user, [target_entity] * 10)
        store = PreferenceStore(system.pipeline.entity_embeddings()).build(
            sequences, world.num_users
        )
        top = store.top_users_for_entity(target_entity, k=1)
        assert top[0].user_id == user

    def test_feedback_loops_into_next_week(self, stack):
        _, system, generator = stack
        system.record_choice(0, [1])
        report = system.weekly_refresh(generator.generate_week(3))
        assert report.week == 2
        assert len(system.feedback) == 0
