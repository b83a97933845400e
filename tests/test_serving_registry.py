"""Artifact registry, snapshot readers, and preference store artifacts."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph import EntityGraph, GraphStore
from repro.preference.store import PreferenceStore
from repro.serving import KIND_GRAPH, KIND_PREFERENCES, ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture()
def store(tmp_path):
    store = GraphStore(tmp_path / "store", num_nodes=10)
    store.put_edges([(0, 1), (1, 2)], weights=[0.9, 0.8])
    store.commit_version("week-0")
    return store


def built_preferences(num_users=6, num_entities=10, seed=0) -> PreferenceStore:
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, 4))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, num_entities, size=5)))
        for u in range(num_users - 1)  # leave one user uncovered
    }
    return PreferenceStore(embeddings).build(sequences, num_users)


class TestSnapshotReader:
    def test_reader_matches_committed_version(self, store):
        reader = store.snapshot_reader()
        assert reader.version == 1
        assert reader.num_edges == 2
        nbrs, weights = reader.neighbors(1)
        assert sorted(nbrs.tolist()) == [0, 2]

    def test_reader_is_pinned_against_later_writes(self, store):
        reader = store.snapshot_reader(1)
        store.put_edges([(3, 4)], weights=[0.5])
        store.commit_version("week-1")
        assert reader.num_edges == 2  # unchanged
        nbrs, _ = reader.neighbors(3)
        assert len(nbrs) == 0

    def test_reader_survives_compaction(self, store):
        reader = store.snapshot_reader(1)
        store.put_edges([(3, 4)])
        store.commit_version("week-1")
        store.compact(keep_last=1)  # deletes snapshot 1 from disk
        assert reader.num_edges == 2  # arrays were loaded at construction

    def test_reader_graph_materialisation(self, store):
        graph = store.snapshot_reader(1).graph()
        assert isinstance(graph, EntityGraph)
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1)

    def test_unknown_version_raises(self, store):
        with pytest.raises(StorageError):
            store.snapshot_reader(7)

    def test_empty_store_raises(self, tmp_path):
        empty = GraphStore(tmp_path / "empty", num_nodes=5)
        with pytest.raises(StorageError):
            empty.snapshot_reader()


class TestPreferenceArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        store = built_preferences()
        store.version_tag = "daily-1"
        directory = store.save_memmap(tmp_path / "prefs")
        assert (directory / "meta.json").exists()
        loaded = PreferenceStore.load_memmap(directory)
        assert loaded.version_tag == "daily-1"
        assert loaded.storage == "memmap"
        np.testing.assert_array_equal(loaded.user_matrix, store.user_matrix)
        np.testing.assert_array_equal(loaded.covered_users, store.covered_users)
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
    def test_publish_graph_from_store(self, store):
        registry = ArtifactRegistry()
        record = registry.publish_graph(store)
        assert record.kind == KIND_GRAPH
        assert record.version == 1
        assert record.tag == "week-0"
        # The record is the frozen CSR directory, pinned by its digest.
        assert (record.source, record.format) == ("csr", "csr")
        assert record.path == str(store.csr_path(1)) and len(record.checksum) == 64
        graph = registry.open_graph()
        assert graph.num_edges == 2 and graph.artifact_format == "csr"

    def test_publish_memory_graph(self):
        registry = ArtifactRegistry()
        graph = EntityGraph.from_edge_list(5, [(0, 1)], [0.5], [0])
        record = registry.publish_graph(graph, tag="week-0")
        assert record.source == "memory"
        assert registry.open_graph(record.version) is graph

    def test_publish_preferences_in_memory(self):
        registry = ArtifactRegistry()
        prefs = built_preferences()
        record = registry.publish_preferences(prefs)
        assert record.kind == KIND_PREFERENCES
        assert record.version == 1
        assert prefs.version_tag == record.tag
        assert registry.open_preferences() is prefs

    def test_publish_preferences_durable(self, tmp_path):
        registry = ArtifactRegistry(root=tmp_path / "artifacts")
        prefs = built_preferences()
        record = registry.publish_preferences(prefs, tag="daily-A")
        assert record.source == "file"
        loaded = registry.open_preferences(record.version)
        assert loaded is not prefs  # reopened from disk
        np.testing.assert_allclose(loaded.user_matrix, prefs.user_matrix)

    def test_versions_are_monotonic(self, store):
        registry = ArtifactRegistry()
        registry.publish_graph(store, version=1)
        with pytest.raises(StorageError):
            registry.publish_graph(store, version=1)  # not newer

    def test_latest_and_get_record(self):
        registry = ArtifactRegistry()
        assert registry.latest(KIND_GRAPH) is None
        p1 = registry.publish_preferences(built_preferences(seed=1))
        p2 = registry.publish_preferences(built_preferences(seed=2))
        assert registry.latest(KIND_PREFERENCES).version == p2.version
        assert registry.get_record(KIND_PREFERENCES, p1.version) is p1
        with pytest.raises(StorageError):
            registry.get_record(KIND_PREFERENCES, 99)

    def test_unknown_kind_raises(self):
        with pytest.raises(StorageError):
            ArtifactRegistry().records("embeddings")
