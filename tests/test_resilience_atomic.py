"""The streaming ``.npy`` artifact writer.

``atomic_write_array`` must write exactly what ``np.save`` writes and
report exactly the digest the in-memory path computed, without holding a
serialised copy of the array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.preference.store import PreferenceStore
from repro.resilience import atomic, atomic_write_array, sha256_hex
from repro.serving import ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence

from helpers import bytesio_write_array, npy_bytes


def sample_arrays():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(7, 6))
    return {
        "float64": rng.normal(size=(5, 4)),
        "float32": rng.normal(size=11).astype(np.float32),
        "int64": rng.integers(-9, 9, size=(3, 3)).astype(np.int64),
        "int32": rng.integers(0, 99, size=13).astype(np.int32),
        "bool": rng.random(10) < 0.5,
        "empty": np.zeros((0, 4)),
        "empty_1d": np.zeros(0, dtype=np.int32),
        "one_d": np.arange(17, dtype=np.float64),
        "non_contiguous": matrix[:, ::2],
        "transposed": matrix.T,
    }


@pytest.mark.parametrize("name", sorted(sample_arrays()))
def test_bytes_and_digest_equal_np_save(name, tmp_path):
    array = sample_arrays()[name]
    path = tmp_path / f"{name}.npy"
    digest = atomic_write_array(path, array)
    expected = npy_bytes(array)
    assert path.read_bytes() == expected
    assert digest == sha256_hex(expected)
    np.testing.assert_array_equal(np.load(path), array)


def test_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "a.npy"
    atomic_write_array(path, np.arange(100.0))
    atomic_write_array(path, np.arange(3, dtype=np.int32))
    assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]
    assert path.read_bytes() == npy_bytes(np.arange(3, dtype=np.int32))


def test_write_that_raises_mid_stream_leaves_nothing(tmp_path, monkeypatch):
    """The header is on disk, the body write fails: neither the destination
    nor the ``.<name>.tmp`` sibling survives."""

    class FailingBody:
        def __init__(self, handle):
            self._handle = handle
            self.writes = 0

        def write(self, chunk):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self._handle.write(chunk)

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._handle.__exit__(*exc)

    monkeypatch.setattr(
        atomic, "open", lambda path, mode: FailingBody(open(path, mode)), raising=False
    )
    path = tmp_path / "arr.npy"
    with pytest.raises(OSError, match="disk full"):
        atomic_write_array(path, np.arange(1000.0))
    assert not path.exists()
    assert not (tmp_path / ".arr.npy.tmp").exists()
    assert list(tmp_path.iterdir()) == []


def built_store(num_users, num_entities=40, dim=8, seed=0) -> PreferenceStore:
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, dim))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, num_entities, size=4)))
        for u in range(num_users)
    }
    return PreferenceStore(embeddings).build(sequences, num_users)


def small_graph() -> EntityGraph:
    return EntityGraph.from_edge_list(
        6,
        [(0, 1), (1, 2), (2, 5), (3, 4), (0, 5)],
        weights=[0.9, 0.4, 0.75, 0.1, 0.33],
        relations=[0, 1, 2, 1, 0],
    )


def published_files(root, kind: str) -> dict[str, bytes]:
    (meta,) = sorted(root.glob(f"{kind}-*/meta.json"))
    return {
        str(path.relative_to(meta.parent)): path.read_bytes()
        for path in sorted(meta.parent.rglob("*"))
        if path.is_file()
    }


def test_preference_generation_is_byte_identical_to_the_bytesio_path(tmp_path, monkeypatch):
    store = built_store(num_users=50)
    ArtifactRegistry(root=tmp_path / "new").publish_preferences(store)
    monkeypatch.setattr("repro.preference.store.atomic_write_array", bytesio_write_array)
    ArtifactRegistry(root=tmp_path / "old").publish_preferences(store)
    new = published_files(tmp_path / "new", "preferences")
    old = published_files(tmp_path / "old", "preferences")
    assert any(name.endswith("meta.json") for name in new)
    assert new == old


def test_csr_generation_is_byte_identical_to_the_bytesio_path(tmp_path, monkeypatch):
    graph = small_graph()
    ArtifactRegistry(root=tmp_path / "new").publish_graph(graph, tag="week-0")
    monkeypatch.setattr("repro.graph.csr.atomic_write_array", bytesio_write_array)
    ArtifactRegistry(root=tmp_path / "old").publish_graph(graph, tag="week-0")
    new = published_files(tmp_path / "new", "graph-csr")
    old = published_files(tmp_path / "old", "graph-csr")
    assert any(name.endswith("meta.json") for name in new)
    assert new == old


def test_save_memmap_holds_no_serialised_copy(tmp_path):
    """A daily generation of 20k users used to pass through a BytesIO and its
    ``getvalue()`` copy — twice the matrix. Streaming holds the header."""
    store = built_store(num_users=20_000, dim=64)
    matrix_bytes = store.user_matrix.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        store.save_memmap(tmp_path / "prefs")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < matrix_bytes / 4, (peak - base, matrix_bytes)
    reopened = PreferenceStore.load_memmap(tmp_path / "prefs")
    np.testing.assert_array_equal(reopened.user_matrix, store.user_matrix)
