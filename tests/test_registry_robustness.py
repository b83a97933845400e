"""Registry crash safety: atomic writes, checksum proofs, quarantine.

The regression this file pins down: a truncated or bit-flipped artifact on
disk must be *quarantined* — moved aside, its record dropped, the previous
generation resolving again — never served and never allowed to crash
startup.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import DenseV3PreferenceIndex
from reference_model import expansion_key, reference_expansion
from repro.errors import CorruptArtifactError
from repro.graph import CSRGraph, EntityGraph, k_hop_expansion
from repro.preference.store import PreferenceStore
from repro.resilience import FaultInjector, InjectedFault, atomic_write_bytes, file_digest
from repro.serving import KIND_GRAPH, KIND_PREFERENCES, ArtifactRegistry
from repro.serving.registry import MANIFEST_NAME, QUARANTINE_DIR
from repro.text.sequence_extractor import UserEntitySequence


def preference_inputs(num_users=6, num_entities=10, seed=0):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, 4))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, num_entities, size=5)))
        for u in range(num_users)
    }
    return embeddings, sequences, num_users


def built_preferences(num_users=6, num_entities=10, seed=0) -> PreferenceStore:
    embeddings, sequences, num_users = preference_inputs(num_users, num_entities, seed)
    return PreferenceStore(embeddings).build(sequences, num_users)


class TestAtomicWrites:
    def test_atomic_write_replaces_not_appends(self, tmp_path):
        path = tmp_path / "file.bin"
        atomic_write_bytes(path, b"first version, longer payload")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_bytes(tmp_path / "file.bin", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_publish_records_checksum(self, tmp_path):
        registry = ArtifactRegistry(root=tmp_path)
        record = registry.publish_preferences(built_preferences())
        assert record.checksum is not None and len(record.checksum) == 64
        # No torn temp preference files linger after the atomic rename.
        assert not list(tmp_path.glob(".tmp-preferences-*"))

    def test_manifest_survives_restart(self, tmp_path):
        first = ArtifactRegistry(root=tmp_path)
        record = first.publish_preferences(built_preferences(), tag="daily-x")
        reopened = ArtifactRegistry(root=tmp_path)
        latest = reopened.latest(KIND_PREFERENCES)
        assert latest == record
        loaded = reopened.open_preferences()
        assert loaded.version_tag == "daily-x"

    def test_manifest_with_retired_source_and_format_keys_loads(self, tmp_path):
        """Records once carried ``source`` and ``format``; a manifest that
        still has them loads, also across a quarantine and a restart."""
        first = ArtifactRegistry(root=tmp_path)
        graph = first.publish_graph(EntityGraph.from_edge_list(6, [(0, 1)], [0.9], [0]))
        daily = [first.publish_preferences(built_preferences(seed=s)) for s in (1, 2)]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        retired = {KIND_GRAPH: ("csr", "csr"), KIND_PREFERENCES: ("file", "memmap")}
        for kind, (source, format_) in retired.items():
            for data in manifest["records"][kind]:
                data.update(source=source, format=format_)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")

        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.records(KIND_GRAPH) == [graph]
        assert reopened.records(KIND_PREFERENCES) == daily
        reopened.quarantine(daily[1], "refused")
        restarted = ArtifactRegistry(root=tmp_path)
        assert restarted.latest(KIND_PREFERENCES) == daily[0]
        assert restarted.publish_preferences(built_preferences()).version == 3
        saved = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert not any(
            {"source", "format"} & set(data)
            for records in saved["records"].values() for data in records
        )


def published_dir(root, record):
    return root / f"preferences-{record.version:06d}"


def truncate(path, count=40):
    path.write_bytes(path.read_bytes()[:-count])


def flip_byte(path, offset=-3):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def strip_checksums(path):
    meta = json.loads(path.read_text(encoding="utf-8"))
    del meta["checksums"]
    path.write_text(json.dumps(meta), encoding="utf-8")


#: name → (file inside a preference artifact, file inside a CSR graph
#: artifact, damage). The open is the proof, so it catches every one.
DAMAGE = {
    "truncated": ("user_matrix.npy", "neighbors.npy", truncate),
    "missing": ("values.npy", "weights.npy", Path.unlink),
    "bitflip": ("user_matrix.npy", "weights.npy", flip_byte),
    "meta-garbled": ("meta.json", "meta.json", truncate),
    "meta-missing": ("meta.json", "meta.json", Path.unlink),
    "no-checksums": ("meta.json", "meta.json", strip_checksums),
}

GOOD_EDGES = [(0, 1, 0.9), (1, 2, 0.5), (2, 5, 0.7), (0, 3, 0.25), (3, 4, 0.6)]
BAD_EDGES = [(4, 5, 0.75), (1, 5, 0.3)]  # published on top of the good ones


class PreferenceGenerations:
    """A good then a bad preference publish (one flat partition, hence
    ``P1``), and the question the surviving generation must keep
    answering."""

    kind = KIND_PREFERENCES
    query = ([1, 2, 5], 10, [3.0, 1.0, 1.0])

    def __init__(self):
        self.good = built_preferences(num_users=40, seed=1)
        self.want = self.good.top_users_for_entities(*self.query)

    def publish(self, registry, tmp_path):
        registry.publish_preferences(self.good, tag="good")
        return registry.publish_preferences(built_preferences(num_users=40, seed=2), tag="bad")

    def damaged_file(self, damage):
        return DAMAGE[damage][0]

    def answer(self, registry):
        store = registry.open_preferences()
        assert store.version_tag == "good"
        return store.top_users_for_entities(*self.query)


class GraphGenerations:
    """The same for a graph the registry froze; the question is an
    ``open_graph()`` expansion."""

    kind = KIND_GRAPH
    want = reference_expansion(6, GOOD_EDGES, [0], 2)

    def publish(self, registry, tmp_path):
        edges = []
        for tag, new in (("good", GOOD_EDGES), ("bad", BAD_EDGES)):
            edges += new
            pairs, weights = [e[:2] for e in edges], [e[2] for e in edges]
            graph = EntityGraph.from_edge_list(6, pairs, weights, [0] * len(pairs))
            record = registry.publish_graph(graph, tag=tag)
        return record

    def damaged_file(self, damage):
        return DAMAGE[damage][1]

    def answer(self, registry):
        assert registry.latest(KIND_GRAPH).tag == "good"
        return expansion_key(k_hop_expansion(registry.open_graph(), [0], 2))


GENERATIONS = {
    "P1": PreferenceGenerations(),
    "graph-registry": GraphGenerations(),
}

#: Every array file of a ``pref-mm-v4`` generation.
PREFERENCE_ARRAYS = [
    "entity_embeddings", "entity_ptr", "user_ids", "user_matrix", "user_rows", "values",
]


class TestQuarantine:
    def test_truncated_artifact_is_quarantined_not_served(self, tmp_path):
        registry = ArtifactRegistry(root=tmp_path)
        good = registry.publish_preferences(built_preferences(seed=1), tag="good")
        bad = registry.publish_preferences(built_preferences(seed=2), tag="bad")
        bad_path = published_dir(tmp_path, bad)
        truncate(bad_path / "user_ids.npy", 3)  # torn write

        with pytest.raises(CorruptArtifactError):
            registry.open_preferences(bad.version)

        # The directory moved to quarantine/, the record dropped, and
        # latest() falls back to the previous good generation.
        assert (tmp_path / QUARANTINE_DIR / bad_path.name).exists()
        assert not bad_path.exists()
        assert registry.latest(KIND_PREFERENCES).version == good.version
        assert registry.open_preferences().version_tag == "good"
        assert registry.quarantined[-1]["reason"].startswith("artifact unreadable")

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("artifact", sorted(GENERATIONS))
    def test_damage_quarantines_generation(self, tmp_path, artifact, damage):
        """One recovery rule for every kind: the damaged generation is
        quarantined, the previous one answers, and a reopened registry
        agrees."""
        generations = GENERATIONS[artifact]
        *_, apply = DAMAGE[damage]
        self.damage_is_quarantined(
            tmp_path, generations, generations.damaged_file(damage), apply
        )

    @pytest.mark.parametrize("array", PREFERENCE_ARRAYS)
    @pytest.mark.parametrize("damage", ["bitflip", "missing", "truncated"])
    def test_damage_to_each_preference_array_quarantines_generation(
        self, tmp_path, damage, array
    ):
        """The same rule for every array file of a preference generation."""
        *_, apply = DAMAGE[damage]
        self.damage_is_quarantined(tmp_path, GENERATIONS["P1"], f"{array}.npy", apply)

    @staticmethod
    def damage_is_quarantined(tmp_path, generations, damaged_file, apply):
        def answer(registry):
            assert registry.latest(generations.kind).version == 1
            return generations.answer(registry)

        registry = ArtifactRegistry(root=tmp_path)
        bad = generations.publish(registry, tmp_path)
        bad_path = Path(bad.path)
        apply(bad_path / damaged_file)

        with pytest.raises(CorruptArtifactError):
            getattr(registry, f"open_{generations.kind}")(bad.version)
        assert answer(registry) == generations.want
        reopened = ArtifactRegistry(root=tmp_path)  # must not raise
        assert answer(reopened) == generations.want
        assert (bad_path.parent / QUARANTINE_DIR / bad_path.name).exists()
        assert not bad_path.exists()
        assert len(registry.quarantined) == 1
        assert answer(ArtifactRegistry(root=tmp_path)) == generations.want  # durable

    def test_corrupt_artifact_detected_at_startup(self, tmp_path):
        first = ArtifactRegistry(root=tmp_path)
        good = first.publish_preferences(built_preferences(seed=1), tag="good")
        bad = first.publish_preferences(built_preferences(seed=2), tag="bad")
        bad_path = published_dir(tmp_path, bad)
        flip_byte(bad_path / "user_matrix.npy")

        reopened = ArtifactRegistry(root=tmp_path)  # must not raise
        assert reopened.latest(KIND_PREFERENCES).version == good.version
        assert len(reopened.quarantined) == 1
        assert (tmp_path / QUARANTINE_DIR / bad_path.name).exists()

    def test_missing_artifact_file_quarantined_at_startup(self, tmp_path):
        first = ArtifactRegistry(root=tmp_path)
        record = first.publish_preferences(built_preferences())
        shutil.rmtree(published_dir(tmp_path, record))

        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.latest(KIND_PREFERENCES) is None
        assert "manifest digest mismatch" in reopened.quarantined[-1]["reason"]

    def test_torn_manifest_does_not_crash_startup(self, tmp_path):
        first = ArtifactRegistry(root=tmp_path)
        first.publish_preferences(built_preferences())
        (tmp_path / MANIFEST_NAME).write_text("{torn", encoding="utf-8")

        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.latest(KIND_PREFERENCES) is None
        assert reopened.quarantined[-1]["reason"] == "unparseable registry manifest"

    def test_previous_format_generation_is_quarantined_at_startup(self, tmp_path):
        """A ``pref-mm-v2`` generation (``shard-00/`` sub-directory) left in
        an existing root is refused by name at startup, and ``latest()``
        resolves past it to the newest generation this build serves."""
        old = self.previous_format_is_quarantined(tmp_path, write_v2_generation, "pref-mm-v2")
        assert (tmp_path / QUARANTINE_DIR / old.name / "shard-00").is_dir()

    def test_v3_generation_is_quarantined_at_startup(self, tmp_path):
        """A ``pref-mm-v3`` generation (a row per user id, a ``covered``
        mask, CSR by user) is refused by name at startup too."""
        old = self.previous_format_is_quarantined(tmp_path, write_v3_generation, "pref-mm-v3")
        assert (tmp_path / QUARANTINE_DIR / old.name / "covered.npy").is_file()

    @staticmethod
    def previous_format_is_quarantined(tmp_path, write, name):
        first = ArtifactRegistry(root=tmp_path)
        good = first.publish_preferences(built_preferences(seed=1), tag="good")
        old = write(
            tmp_path / "preferences-000002",
            DenseV3PreferenceIndex(*preference_inputs(seed=2)),
        )
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["records"][KIND_PREFERENCES].append(
            {**good.to_dict(), "version": 2, "tag": "v2", "path": str(old),
             "checksum": file_digest(old / "meta.json")}
        )
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")

        reopened = ArtifactRegistry(root=tmp_path)  # must not raise
        assert reopened.latest(KIND_PREFERENCES) == good
        assert reopened.open_preferences().version_tag == "good"
        (entry,) = reopened.quarantined
        assert entry["version"] == 2 and f"'{name}'" in entry["reason"]
        return old

    def test_quarantined_version_is_never_reused(self, tmp_path):
        registry = ArtifactRegistry(root=tmp_path)
        registry.publish_preferences(built_preferences())
        for _ in range(3):
            record = registry.publish_preferences(built_preferences())
            registry.quarantine(record, "refused")
        assert [entry["version"] for entry in registry.quarantined] == [2, 3, 4]
        assert sorted(p.name for p in (tmp_path / QUARANTINE_DIR).iterdir()) == [
            "preferences-000002", "preferences-000003", "preferences-000004",
        ]
        assert registry.publish_preferences(built_preferences()).version == 5
        # A restarted registry reads the numbers handed out from quarantine/.
        registry.quarantine(registry.latest(KIND_PREFERENCES), "refused")
        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.latest(KIND_PREFERENCES).version == 1
        assert reopened.publish_preferences(built_preferences()).version == 6
        graph = EntityGraph.from_edge_list(6, [(0, 1), (1, 2)], [0.9, 0.5], [0, 1])
        assert reopened.publish_graph(graph).version == 1

    def test_torn_drift_report_is_skipped(self, tmp_path):
        first = ArtifactRegistry(root=tmp_path)
        (tmp_path / "drift-graph-000002.json").write_text("]broken", encoding="utf-8")
        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.drift_reports() == []
        assert reopened.quarantined[-1]["reason"] == "unparseable drift report"


def write_v2_generation(directory, store):
    """The ``pref-mm-v2`` layout of a :class:`DenseV3PreferenceIndex`: one
    ``shard-NN/`` sub-directory per partition, each with a ``user_ids``
    array, checksums per shard."""
    shard = directory / "shard-00"
    shard.mkdir(parents=True)
    arrays = {
        "user_ids": np.arange(store.num_users, dtype=np.int64),
        "user_matrix": store.user_matrix, "covered": store.covered_users,
        "row_ptr": store.row_ptr, "col_idx": store.col_idx, "values": store.values,
    }
    np.save(directory / "entity_embeddings.npy", store.entity_embeddings)
    for name, array in arrays.items():
        np.save(shard / f"{name}.npy", array)
    meta = {
        "format": "pref-mm-v2", "n_shards": 1, "num_users": store.num_users,
        "direct_weight": store.direct_weight, "version_tag": "v2",
        "checksums": {
            "entity_embeddings": file_digest(directory / "entity_embeddings.npy"),
            "shards": [{name: file_digest(shard / f"{name}.npy") for name in arrays}],
        },
    }
    (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return directory


def write_v3_generation(directory, store):
    """The ``pref-mm-v3`` layout of a :class:`DenseV3PreferenceIndex`: flat
    arrays, row ``i`` = user ``i``, a ``covered`` mask and CSR by user."""
    directory.mkdir(parents=True)
    arrays = {
        "entity_embeddings": store.entity_embeddings,
        "user_matrix": store.user_matrix, "covered": store.covered_users,
        "row_ptr": store.row_ptr, "col_idx": store.col_idx, "values": store.values,
    }
    for name, array in arrays.items():
        np.save(directory / f"{name}.npy", array)
    meta = {
        "format": "pref-mm-v3", "num_users": store.num_users,
        "direct_weight": store.direct_weight, "version_tag": "v3",
        "checksums": {name: file_digest(directory / f"{name}.npy") for name in arrays},
    }
    (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return directory


def frozen_graph(directory):
    graph = EntityGraph.from_edge_list(6, [(0, 1), (1, 2), (2, 5)], [0.9, 0.5, 0.7], [0, 1, 0])
    return CSRGraph.from_entity_graph(graph).save(directory)


def frozen_preferences(directory):
    return built_preferences(num_users=12).save_memmap(directory)


class TestVerifiedLoad:
    @pytest.mark.parametrize(
        "freeze, array, load",
        [
            (frozen_graph, "weights.npy", CSRGraph.load),
            (frozen_preferences, "user_matrix.npy", PreferenceStore.load_memmap),
        ],
        ids=["csr", "pref"],
    )
    def test_missing_checksum_fails_verification(self, tmp_path, freeze, array, load):
        """A manifest without checksums proves nothing: the open must
        refuse it instead of skipping the arrays it cannot check."""
        directory = freeze(tmp_path / "artifact")
        load(directory)
        strip_checksums(directory / "meta.json")
        flip_byte(directory / array)
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load(directory)


def rewrite(relative, change):
    """Replace one array and record its new checksum, so only the
    structure checks can refuse the artifact."""

    def damage(directory):
        np.save(directory / relative, change(np.load(directory / relative)))
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        meta["checksums"][relative.removesuffix(".npy")] = file_digest(directory / relative)
        (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

    return damage


def set_num_users(value):
    def damage(directory):
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        meta["num_users"] = value
        (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

    return damage


#: One violated structure condition each, on a 12-user artifact.
BAD_SHAPES = {
    "matrix-rows": rewrite("user_matrix.npy", lambda a: a[:-1]),
    "matrix-width": rewrite("user_matrix.npy", lambda a: a[:, :-1]),
    "embedding-width": rewrite("entity_embeddings.npy", lambda a: a[:, :-1]),
    "embedding-rows": rewrite("entity_embeddings.npy", lambda a: a[:-1]),
    "user_ids-length": rewrite("user_ids.npy", lambda a: a[:-1]),
    "entity_ptr-length": rewrite("entity_ptr.npy", lambda a: a[:-1]),
    "entity_ptr-end": rewrite("entity_ptr.npy", lambda a: a + 1),
    "user_rows-length": rewrite("user_rows.npy", lambda a: a[:-1]),
    "values-length": rewrite("values.npy", lambda a: a[:-1]),
    "values-dtype": rewrite("values.npy", lambda a: a.astype(np.float32)),
    "entity_ptr-dtype": rewrite("entity_ptr.npy", lambda a: a.astype(np.int32)),
    "user_rows-dtype": rewrite("user_rows.npy", lambda a: a.astype(np.int32)),
    "user_ids-dtype": rewrite("user_ids.npy", lambda a: a.astype(np.int32)),
    "num_users-large": set_num_users(13),
    "num_users-small": set_num_users(11),
}


class TestTrustedOpen:
    @pytest.mark.parametrize("violation", sorted(BAD_SHAPES))
    def test_bad_structure_is_corrupt(self, tmp_path, violation):
        """Arrays whose checksums hold but which do not fit together are
        refused too — they would be out-of-bounds reads in the kernel."""
        directory = frozen_preferences(tmp_path / "artifact")
        assert PreferenceStore.load_memmap(directory).num_users == 12
        BAD_SHAPES[violation](directory)
        with pytest.raises(CorruptArtifactError):
            PreferenceStore.load_memmap(directory)


class TestFaultSeams:
    def test_failed_manifest_write_rolls_back_the_record(self, tmp_path):
        faults = FaultInjector()
        registry = ArtifactRegistry(root=tmp_path, faults=faults)
        registry.publish_preferences(built_preferences(seed=1))

        # publish checks registry.write once up front and once in
        # _save_manifest; fail only the manifest write.
        faults.fail_at(
            "registry.write", faults.calls("registry.write") + 2,
            exception=InjectedFault,
        )
        with pytest.raises(InjectedFault):
            registry.publish_preferences(built_preferences(seed=2))

        # The half-published record must not linger: the next publish takes
        # the same next version, and the durable manifest agrees.
        assert registry.latest(KIND_PREFERENCES).version == 1
        record = registry.publish_preferences(built_preferences(seed=2))
        assert record.version == 2
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        versions = [r["version"] for r in manifest["records"][KIND_PREFERENCES]]
        assert versions == [1, 2]

    def test_read_seam_fires_on_open(self, tmp_path):
        faults = FaultInjector()
        registry = ArtifactRegistry(root=tmp_path, faults=faults)
        registry.publish_preferences(built_preferences())
        faults.fail_next("registry.read", 1)
        with pytest.raises(InjectedFault):
            registry.open_preferences()
        assert registry.open_preferences() is not None  # next attempt heals


class TestRegistryFrozenGraph:
    def test_reopened_registry_opens_the_frozen_graph(self, tmp_path):
        """The record is the ``graph-csr-NNNNNN/`` directory, not a handle
        on the published graph: a restarted process serves it without
        re-binding anything."""
        first = ArtifactRegistry(root=tmp_path)
        record = first.publish_graph(
            EntityGraph.from_edge_list(6, [(0, 1)], [0.5]), tag="w0"
        )

        reopened = ArtifactRegistry(root=tmp_path)
        assert reopened.latest(KIND_GRAPH) == record
        assert reopened.open_graph().neighbors(0)[0].tolist() == [1]
