"""CheckpointStore: digest-proved resume state, atomic on disk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.resilience import CheckpointStore, FaultInjector, InjectedFault


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(root=tmp_path / "ckpt")


def test_put_get_roundtrip(store):
    payload = {"arr": np.arange(6).reshape(2, 3), "note": "stage output"}
    digest = store.put("run-1", "cooccurrence", payload)
    assert len(digest) == 64
    loaded = store.get("run-1", "cooccurrence")
    np.testing.assert_array_equal(loaded["arr"], payload["arr"])
    assert loaded["note"] == "stage output"
    assert store.has("run-1", "cooccurrence")
    assert store.digest("run-1", "cooccurrence") == digest


def test_identical_payloads_share_a_digest(store):
    d1 = store.put("run-1", "s", {"x": np.ones(4)})
    d2 = store.put("run-2", "s", {"x": np.ones(4)})
    assert d1 == d2  # the idempotency proof the chaos suite relies on


def test_missing_stage_raises(store):
    with pytest.raises(CheckpointError):
        store.get("run-1", "nope")


def test_completed_stages_preserve_order(store):
    for stage in ("cooccurrence", "candidates", "ranked"):
        store.put("run-1", stage, stage)
    assert store.completed_stages("run-1") == ["cooccurrence", "candidates", "ranked"]
    assert store.runs() == ["run-1"]


def test_clear_run_drops_everything(store):
    store.put("run-1", "s", 1)
    store.clear_run("run-1")
    assert not store.has("run-1", "s")
    assert store.runs() == []


def test_disk_store_survives_process_restart(tmp_path):
    root = tmp_path / "ckpt"
    first = CheckpointStore(root=root)
    digest = first.put("weekly-0000", "cooccurrence", np.arange(10))

    reopened = CheckpointStore(root=root)  # a fresh "process"
    assert reopened.completed_stages("weekly-0000") == ["cooccurrence"]
    assert reopened.digest("weekly-0000", "cooccurrence") == digest
    np.testing.assert_array_equal(
        reopened.get("weekly-0000", "cooccurrence"), np.arange(10)
    )


def test_truncated_checkpoint_fails_digest_proof(tmp_path):
    root = tmp_path / "ckpt"
    store = CheckpointStore(root=root)
    store.put("run-1", "ranked", np.arange(100))
    path = root / "run-1" / "ranked.ckpt"
    path.write_bytes(path.read_bytes()[:-10])  # torn write

    reopened = CheckpointStore(root=root)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        reopened.get("run-1", "ranked")


def test_flipped_byte_fails_digest_proof(tmp_path):
    root = tmp_path / "ckpt"
    store = CheckpointStore(root=root)
    store.put("run-1", "s", b"payload bytes")
    path = root / "run-1" / "s.ckpt"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        store.get("run-1", "s")


def test_deleted_checkpoint_file_raises_cleanly(tmp_path):
    root = tmp_path / "ckpt"
    store = CheckpointStore(root=root)
    store.put("run-1", "s", 1)
    (root / "run-1" / "s.ckpt").unlink()
    with pytest.raises(CheckpointError, match="unreadable"):
        store.get("run-1", "s")


def test_torn_manifest_means_run_is_recomputed(tmp_path):
    root = tmp_path / "ckpt"
    store = CheckpointStore(root=root)
    store.put("run-1", "s", 1)
    (root / "run-1" / "manifest.json").write_text("{not json", encoding="utf-8")

    reopened = CheckpointStore(root=root)  # must not crash on startup
    assert reopened.runs() == []
    assert not reopened.has("run-1", "s")


def test_fault_seams_fire_on_write_and_read(tmp_path):
    faults = FaultInjector()
    store = CheckpointStore(tmp_path / "ckpt", faults=faults)
    faults.fail_next("checkpoint.write", 1, exception=InjectedFault)
    with pytest.raises(InjectedFault):
        store.put("run-1", "s", 1)
    store.put("run-1", "s", 1)  # the next call succeeds

    faults.fail_next("checkpoint.read", 1, exception=InjectedFault)
    with pytest.raises(InjectedFault):
        store.get("run-1", "s")
    assert store.get("run-1", "s") == 1


def test_counters_track_io(store):
    store.put("run-1", "a", 1)
    store.put("run-1", "b", 2)
    store.get("run-1", "a")
    assert store.writes == 2
    assert store.loads == 1
