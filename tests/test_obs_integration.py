"""End-to-end observability: one request sequence, verified signals.

Drives an ``expand`` → ``expand`` → ``target`` sequence through
``QueryFrontend.dispatch`` over hand-activated artifacts (no TRMP training)
and asserts the exact counter deltas, the cache miss-then-hit pair,
correctly nested request-record phases, and the frozen-clock timestamps the
injectable clock enables.
"""

import json

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving.frontend import QueryFrontend
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture()
def frozen_service(world, tmp_path):
    """EGLService on a ManualClock with hand-activated artifacts."""
    obs = Observability(clock=ManualClock(start=5_000.0))
    system = EGLSystem(world, artifact_root=tmp_path, obs=obs)
    graph = EntityGraph.from_edge_list(
        world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
    )
    reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
    system.runtime.activate_graph(reasoner, version=1, tag="week-0")
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(30)
    }
    prefs = PreferenceStore(embeddings).build(sequences, world.num_users)
    system.runtime.activate_preferences(prefs, version=1, tag="daily-1")
    return EGLService(system)


def run_sequence(service, world):
    """Three envelopes, each through the one entry point."""
    frontend = QueryFrontend(service)
    phrase = world.entities[0].name
    _, cold = frontend.dispatch("expand", {"phrases": [phrase], "depth": 2})
    _, warm = frontend.dispatch("expand", {"phrases": [phrase], "depth": 2})
    ids = [e["entity_id"] for e in cold["payload"]["entities"]]
    _, target = frontend.dispatch("target", {"entity_ids": ids, "k": 5})
    return cold, warm, target


class TestCounterDeltas:
    def test_request_counters_and_cache_pair(self, frozen_service, world):
        metrics = frozen_service.obs.metrics
        cold, warm, target = run_sequence(frozen_service, world)
        assert cold["ok"] and warm["ok"] and target["ok"]

        assert metrics.get_value("requests_total", endpoint="expand", code="ok") == 2
        assert metrics.get_value("requests_total", endpoint="target", code="ok") == 1
        assert [labels for labels, _ in metrics.series("requests_total")] == [
            {"code": "ok", "endpoint": "expand"}, {"code": "ok", "endpoint": "target"},
        ]

        # The identical second expansion is the hit of a miss-then-hit pair.
        assert metrics.get_value("serving_expansion_cache_misses_total") == 1
        assert metrics.get_value("serving_expansion_cache_hits_total") == 1
        assert metrics.get_value("serving_expansion_cache_size") == 1

    def test_error_requests_counted_separately(self, frozen_service, world):
        metrics = frozen_service.obs.metrics
        status, envelope = QueryFrontend(frozen_service).dispatch(
            "expand", {"phrases": [world.entities[0].name], "depth": -1}
        )
        assert (status, envelope["code"]) == (400, "invalid_argument")
        assert metrics.get_value(
            "requests_total", endpoint="expand", code="invalid_argument"
        ) == 1
        assert metrics.get_value("requests_total", endpoint="expand", code="ok") is None

    def test_latency_histograms(self, frozen_service, world):
        run_sequence(frozen_service, world)
        snapshot = frozen_service.obs.metrics.snapshot()
        expand = {
            s["labels"]["outcome"]: s
            for s in snapshot["histograms"]["serving_expand_seconds"]
        }
        # Only the computed expansion is sampled: the cache-hit path stays
        # obs-free (hits are counted by the cache's own collector instead).
        assert expand["computed"]["count"] == 1
        assert set(expand) == {"computed"}
        api = snapshot["histograms"]["request_seconds"]
        by_endpoint = {s["labels"]["endpoint"]: s for s in api}
        assert by_endpoint["expand"]["count"] == 2
        assert by_endpoint["target"]["count"] == 1
        assert by_endpoint["expand"]["p50"] is not None
        assert by_endpoint["expand"]["p99"] is not None

    def test_active_version_gauges(self, frozen_service):
        metrics = frozen_service.obs.metrics
        assert metrics.get_value("serving_active_version", kind="graph") == 1
        assert metrics.get_value("serving_active_version", kind="preferences") == 1
        assert metrics.get_value("serving_hot_swaps_total", kind="graph") == 1


def _nesting(journey):
    """Phase name → name of the phase it is nested in (``None`` at depth 0)."""
    parents, open_names = {}, []
    for name, depth, _start, _duration in journey["phases"]:
        del open_names[depth:]
        parents[name] = open_names[-1] if open_names else None
        open_names.append(name)
    return parents


class TestTraceParenting:
    def test_cold_expand_trace_nests_compute_under_request(self, frozen_service, world):
        run_sequence(frozen_service, world)
        cold, warm, target = frozen_service.obs.journeys.tail()  # one record per request
        assert [j["endpoint"] for j in (cold, warm, target)] == ["expand", "expand", "target"]

        # The *cold* expand computed: k-hop sits under runtime, which sits
        # under the api call dispatch timed.
        nesting = _nesting(cold)
        assert nesting["api"] is None and nesting["runtime"] == "api"
        assert nesting["khop"] == "runtime"
        assert nesting["hop.gather"] == "khop"
        assert nesting["cache.put"] == "runtime"

        nesting = _nesting(target)
        assert nesting["runtime"] == "api"
        assert nesting["targeting"] == "runtime"
        assert nesting["preference.topk"] == "targeting"

    def test_warm_expand_trace_has_no_compute_span(self, frozen_service, world):
        run_sequence(frozen_service, world)
        cold, warm, _target = frozen_service.obs.journeys.tail()
        compute_counts = [
            sum(1 for name, *_ in journey["phases"] if name == "khop")
            for journey in (cold, warm)
        ]
        assert compute_counts == [1, 0]  # warm hit never recomputes
        assert (cold["cache"], warm["cache"]) == ("miss", "hit")


class TestFrozenClock:
    def test_elapsed_and_timestamp_are_deterministic(self, frozen_service, world):
        response = frozen_service.expand({"phrases": [world.entities[0].name], "depth": 2})
        assert response.elapsed_ms == 0.0  # the clock never moved
        assert response.timestamp == 5_000.0

    def test_advancing_the_clock_is_observed(self, frozen_service, world):
        clock = frozen_service.obs.clock
        clock.advance(1.5)
        response = frozen_service.expand({"phrases": [world.entities[0].name], "depth": 2})
        assert response.timestamp == 5_001.5


class TestHealthEmbedsMetrics:
    def test_health_payload_has_snapshot_and_swaps(self, frozen_service, world):
        run_sequence(frozen_service, world)
        response = frozen_service.health()
        assert response.ok
        payload = response.payload
        json.dumps(payload)  # still fully serialisable
        metrics = payload["metrics"]
        assert metrics["enabled"]
        assert "requests_total" in metrics["counters"]
        assert "serving_expand_seconds" in metrics["histograms"]
        swaps = payload["runtime"]["recent_swaps"]
        assert [e["kind"] for e in swaps] == ["graph", "preferences"]
        assert swaps[0]["old_version"] is None and swaps[0]["new_version"] == 1

    def test_metrics_text_exposition(self, frozen_service, world):
        run_sequence(frozen_service, world)
        text = frozen_service.metrics_text()
        assert 'requests_total{code="ok",endpoint="expand"} 2' in text
        assert "serving_expansion_cache_hits_total 1" in text
        assert 'serving_active_version{kind="graph"} 1' in text
