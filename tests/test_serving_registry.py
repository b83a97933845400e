"""Artifact registry and preference store artifacts."""

import numpy as np
import pytest

from helpers import assert_owned_read_only
from repro.errors import StorageError
from repro.graph import EntityGraph
from repro.preference.store import PreferenceStore
from repro.serving import KIND_GRAPH, KIND_PREFERENCES, ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence


def built_preferences(num_users=6, num_entities=10, seed=0) -> PreferenceStore:
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, 4))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, num_entities, size=5)))
        for u in range(num_users - 1)  # leave one user uncovered
    }
    return PreferenceStore(embeddings).build(sequences, num_users)


class TestPreferenceArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        store = built_preferences()
        store.version_tag = "daily-1"
        directory = store.save_memmap(tmp_path / "prefs")
        assert (directory / "meta.json").exists()
        loaded = PreferenceStore.load_memmap(directory)
        assert loaded.version_tag == "daily-1"
        assert_owned_read_only(loaded.user_matrix)
        np.testing.assert_array_equal(loaded.user_matrix, store.user_matrix)
        np.testing.assert_array_equal(loaded.user_ids, store.user_ids)
        assert loaded.user_ids.tolist() == [0, 1, 2, 3, 4]  # user 5 is uncovered
        original = store.top_users_for_entities([0, 3], k=3)
        assert loaded.top_users_for_entities([0, 3], k=3) == original

    def test_save_requires_built(self, tmp_path):
        from repro.errors import NotFittedError

        store = PreferenceStore(np.eye(4))
        with pytest.raises(NotFittedError):
            store.save_memmap(tmp_path / "prefs")

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            PreferenceStore.load_memmap(tmp_path / "nope")


class TestRegistry:
    def test_publish_preferences_durable(self, tmp_path):
        registry = ArtifactRegistry(root=tmp_path / "artifacts")
        prefs = built_preferences()
        record = registry.publish_preferences(prefs, tag="daily-A")
        assert (record.kind, record.version) == (KIND_PREFERENCES, 1)
        assert prefs.version_tag == record.tag
        loaded = registry.open_preferences(record.version)
        assert loaded is not prefs  # reopened from disk
        np.testing.assert_allclose(loaded.user_matrix, prefs.user_matrix)

    def test_versions_are_monotonic(self, tmp_path):
        graph = EntityGraph.from_edge_list(5, [(0, 1)], [0.5], [0])
        registry = ArtifactRegistry(tmp_path)
        assert [registry.publish_graph(graph).version for _ in range(3)] == [1, 2, 3]
        # A reopened registry continues the sequence from its manifest.
        assert ArtifactRegistry(tmp_path).publish_graph(graph).version == 4

    def test_latest_and_get_record(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        assert registry.latest(KIND_GRAPH) is None
        p1 = registry.publish_preferences(built_preferences(seed=1))
        p2 = registry.publish_preferences(built_preferences(seed=2))
        assert registry.latest(KIND_PREFERENCES).version == p2.version
        assert registry.get_record(KIND_PREFERENCES, p1.version) is p1
        with pytest.raises(StorageError):
            registry.get_record(KIND_PREFERENCES, 99)

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(StorageError):
            ArtifactRegistry(tmp_path).records("embeddings")
