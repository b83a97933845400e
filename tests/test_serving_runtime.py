"""ServingRuntime: atomic hot-swap, version-keyed caching, batched reads.

These tests drive the runtime with hand-built artifacts (no TRMP training)
so the swap/caching semantics are isolated from the offline pipeline.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _COMMANDS
from repro.errors import NotFittedError
from repro.graph import EntityGraph
from repro.online import EGLSystem
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving import ServingRuntime
from repro.text import EntityDict
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture(scope="module")
def entity_dict(world):
    return EntityDict.from_world(world)


def make_reasoner(world, entity_dict, edges, weights):
    graph = EntityGraph.from_edge_list(
        world.num_entities, edges, weights, [0] * len(edges)
    )
    return GraphReasoner(graph, entity_dict)


@pytest.fixture()
def runtime(world, entity_dict):
    runtime = ServingRuntime(cache_size=16)
    reasoner = make_reasoner(
        world, entity_dict, [(0, 1), (1, 2)], [0.9, 0.8]
    )
    runtime.activate_graph(reasoner, version=1, tag="week-0")
    return runtime


def build_preferences(world, seed=0):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(40)
    }
    return PreferenceStore(embeddings).build(sequences, world.num_users)


class TestActivation:
    def test_expand_before_any_graph_raises(self):
        with pytest.raises(NotFittedError):
            ServingRuntime().expand(["anything"])

    def test_target_before_preferences_raises(self, runtime):
        with pytest.raises(NotFittedError):
            runtime.target([0], k=5)

    def test_versions_reflect_activations(self, runtime, world):
        assert runtime.versions() == {
            "graph_version": 1,
            "graph_tag": "week-0",
            "graph_format": "memory",
            "preference_version": None,
            "preference_tag": None,
            "preference_format": None,
        }
        runtime.activate_preferences(build_preferences(world), version=1, tag="daily-1")
        assert runtime.versions()["preference_version"] == 1
        assert runtime.versions()["preference_tag"] == "daily-1"

    def test_health_payload(self, runtime):
        health = runtime.health()
        assert health["graph_ready"] and not health["preferences_ready"]
        assert health["swap_count"] == 1
        assert health["cache"]["size"] == 0
        assert health["graph_version"] == 1


class TestReadThroughCache:
    def test_repeat_expansion_is_a_cache_hit(self, runtime, world):
        phrase = world.entities[0].name
        cold = runtime.expand([phrase], depth=2)
        warm = runtime.expand([phrase], depth=2)
        assert warm is cold  # served from cache, not recomputed
        stats = runtime.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_knobs_are_different_entries(self, runtime, world):
        phrase = world.entities[0].name
        runtime.expand([phrase], depth=1)
        runtime.expand([phrase], depth=2)
        runtime.expand([phrase], depth=2, min_score=0.5)
        assert runtime.cache.stats()["misses"] == 3

    def test_phrase_normalisation_shares_entries(self, runtime, world):
        phrase = world.entities[0].name
        runtime.expand([phrase], depth=2)
        warm = runtime.cache.stats()["hits"]
        runtime.expand([f"  {phrase.upper()}  ".lower()], depth=2)
        assert runtime.cache.stats()["hits"] == warm + 1


class TestHotSwap:
    def test_refresh_mid_sequence_is_atomic_and_version_scoped(
        self, runtime, world, entity_dict
    ):
        phrase = world.entities[0].name

        # Request burst on version 1 (second call is cached).
        v1_view = runtime.expand([phrase], depth=2)
        assert runtime.expand([phrase], depth=2) is v1_view
        v1_ids = {e.entity_id for e in v1_view.entities}
        assert v1_ids == {0, 1, 2}

        # An in-flight request pins the old generation...
        old_generation = runtime.acquire()

        # ...while the weekly refresh hot-swaps a different graph in.
        new_reasoner = make_reasoner(
            world, entity_dict, [(0, 3), (3, 4)], [0.9, 0.8]
        )
        runtime.activate_graph(new_reasoner, version=2, tag="week-1")

        # The pinned generation still serves the old artifact, untouched.
        assert old_generation.graph_version == 1
        old_view = old_generation.reasoner.expand([phrase], depth=2)
        assert {e.entity_id for e in old_view.entities} == v1_ids

        # New requests see the new version, and the cached v1 expansion is
        # never served for it: the first v2 request recomputes.
        misses_before = runtime.cache.stats()["misses"]
        v2_view = runtime.expand([phrase], depth=2)
        assert runtime.cache.stats()["misses"] == misses_before + 1
        assert v2_view is not v1_view
        assert {e.entity_id for e in v2_view.entities} == {0, 3, 4}
        assert runtime.versions()["graph_version"] == 2

    def test_swap_purges_replaced_version_entries(self, runtime, world, entity_dict):
        runtime.expand([world.entities[0].name], depth=2)
        assert len(runtime.cache) == 1
        runtime.activate_graph(
            make_reasoner(world, entity_dict, [(0, 3)], [0.9]), version=2
        )
        assert len(runtime.cache) == 0

    def test_preference_swap_keeps_graph_generation(self, runtime, world):
        runtime.activate_preferences(build_preferences(world, seed=1), version=1)
        first = runtime.acquire()
        runtime.activate_preferences(build_preferences(world, seed=2), version=2)
        second = runtime.acquire()
        assert first.preference_version == 1
        assert second.preference_version == 2
        assert second.graph_version == first.graph_version == 1
        # The old generation still targets with its own store.
        old = first.targeting.target([0, 1], k=5)
        new = second.targeting.target([0, 1], k=5)
        assert len(old.users) == len(new.users) == 5


class TestSwapEventLog:
    def test_events_record_old_to_new_transitions(self, runtime, world, entity_dict):
        runtime.activate_graph(
            make_reasoner(world, entity_dict, [(0, 3)], [0.9]), version=2, tag="week-1"
        )
        runtime.activate_preferences(build_preferences(world), version=1, tag="daily-1")
        events = runtime.swap_events()
        assert [(e["kind"], e["old_version"], e["new_version"]) for e in events] == [
            ("graph", None, 1),
            ("graph", 1, 2),
            ("preferences", None, 1),
        ]
        assert events[1]["tag"] == "week-1"
        assert all(e["duration_ms"] >= 0 for e in events)
        assert all(e["at"] > 0 for e in events)

    def test_health_exposes_recent_swaps(self, runtime):
        health = runtime.health()
        assert len(health["recent_swaps"]) == 1
        assert health["recent_swaps"][0]["new_version"] == 1

    def test_version_gauges_follow_swaps(self, runtime, world, entity_dict):
        metrics = runtime.obs.metrics
        assert metrics.get_value("serving_active_version", kind="graph") == 1
        runtime.activate_graph(
            make_reasoner(world, entity_dict, [(0, 3)], [0.9]), version=5
        )
        assert metrics.get_value("serving_active_version", kind="graph") == 5
        assert metrics.get_value("serving_hot_swaps_total", kind="graph") == 2


class TestBatchedTargeting:
    def test_batch_matches_sequential(self, runtime, world):
        runtime.activate_preferences(build_preferences(world), version=1)
        sets = [[0, 1, 2], [3, 4], [1]]
        weights = [[0.5, 0.3, 0.2], None, None]
        batched = runtime.target_batch(sets, k=7, weights=weights)
        assert len(batched) == 3
        for ids, w, batch_result in zip(sets, weights, batched):
            single = runtime.target(ids, k=7, weights=w)
            assert [u.user_id for u in single.users] == [
                u.user_id for u in batch_result.users
            ]
            assert [u.score for u in single.users] == pytest.approx(
                [u.score for u in batch_result.users]
            )

    def test_full_flow_for_phrases(self, world, entity_dict):
        system = EGLSystem(world)
        system.runtime.activate_graph(
            make_reasoner(world, entity_dict, [(0, 1), (1, 2)], [0.9, 0.8]), version=1
        )
        system.runtime.activate_preferences(build_preferences(world), version=1)
        view, result = system.target_users_for_phrases(
            [world.entities[0].name], depth=2, k=5
        )
        assert len(view.entities) >= 1
        assert len(result.users) == 5
        # The expansion went through the runtime's cache.
        assert system.runtime.cache.stats()["misses"] == 1


#: Surface deleted because nothing outside its own test called it.
DELETED_NAMES = frozenset({
    "stable_reweighting", "DriftAwareReweighter", "pair_weights",
    "slo_tracker", "burn_shed_threshold",
    "_collect_shard_metrics", "shard_summary", "shard_stats",
    "shard_score_rows", "preference_shards",
    "warm", "target_for_phrases", "neighbors_batch",
    "OfflineArtifacts", "stack_tensors",
})


def _identifiers(tree: ast.AST):
    """Every name a module defines, reads, passes or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_surface_nothing_pays_for():
    """Guard: the deleted options, helpers and CLI commands stay deleted."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = {
        (path.relative_to(src).as_posix(), name)
        for path in src.rglob("*.py")
        for name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        if name in DELETED_NAMES
    }
    assert not found
    assert set(_COMMANDS) == {
        "demo", "world", "graph-stats", "serve", "refresh", "rollback",
    }
