"""IVF index, checkpoints, k-hop subgraphs, serving API facade."""

import numpy as np
import pytest

from repro.embeddings import BruteForceKNN, IVFIndex
from repro.errors import ConfigError, StorageError
from repro.graph import EntityGraph, k_hop_subgraph
from repro.nn import MLP, load_checkpoint, save_checkpoint
from repro.online.api import EGLService
from repro.tensor import Tensor


class TestIVFIndex:
    @pytest.fixture()
    def clustered(self, rng):
        centers = rng.normal(size=(4, 12)) * 4
        return np.concatenate([c + rng.normal(size=(40, 12)) * 0.3 for c in centers])

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            IVFIndex(np.zeros(5))
        with pytest.raises(ConfigError):
            IVFIndex(rng.normal(size=(10, 3)), num_centroids=0)

    def test_recall_on_clustered_data(self, clustered):
        exact = BruteForceKNN(clustered)
        ivf = IVFIndex(clustered, num_centroids=8, num_probe=3, rng=0)
        recall = ivf.recall_against_exact(exact, k=5, sample=np.arange(0, 160, 10))
        assert recall > 0.8

    def test_more_probes_more_recall(self, clustered):
        exact = BruteForceKNN(clustered)
        sample = np.arange(0, 160, 10)
        narrow = IVFIndex(clustered, num_centroids=8, num_probe=1, rng=0)
        wide = IVFIndex(clustered, num_centroids=8, num_probe=8, rng=0)
        assert wide.recall_against_exact(exact, 5, sample) >= narrow.recall_against_exact(
            exact, 5, sample
        )
        # Probing every list is exact.
        assert wide.recall_against_exact(exact, 5, sample) == pytest.approx(1.0)

    def test_query_sorted_and_excludes(self, clustered):
        ivf = IVFIndex(clustered, rng=0)
        ids, scores = ivf.query(clustered[3], k=10, exclude=3)
        assert 3 not in ids
        assert (np.diff(scores) <= 1e-12).all()

    def test_centroids_clamped_to_population(self, rng):
        small = rng.normal(size=(5, 4))
        ivf = IVFIndex(small, num_centroids=50, num_probe=50, rng=0)
        assert ivf.num_centroids == 5


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        a = MLP([4, 8, 2], rng=0)
        b = MLP([4, 8, 2], rng=1)
        path = tmp_path / "model.npz"
        n = save_checkpoint(a, path)
        assert n == len(a.parameters())
        load_checkpoint(b, path)
        x = Tensor(np.ones((3, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_checkpoint(MLP([2, 2], rng=0), tmp_path / "nope.npz")

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, foo=np.ones(3))
        with pytest.raises(StorageError):
            load_checkpoint(MLP([2, 2], rng=0), path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(MLP([4, 8, 2], rng=0), path)
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            load_checkpoint(MLP([4, 4, 2], rng=0), path)


class TestKHopSubgraph:
    def test_induced_subgraph_matches_expansion(self):
        graph = EntityGraph.from_edge_list(
            6, [(0, 1), (1, 2), (2, 3), (4, 5)], weights=[0.9, 0.8, 0.7, 0.6]
        )
        sub, expansion, node_ids = k_hop_subgraph(graph, [0], depth=2)
        assert set(node_ids.tolist()) == set(expansion.scores)
        assert sub.num_nodes == 3  # 0, 1, 2
        # Edges inside the expansion survive, relabelled.
        local = {int(n): i for i, n in enumerate(node_ids)}
        assert sub.has_edge(local[0], local[1])
        assert sub.has_edge(local[1], local[2])
        assert sub.num_edges == 2


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
