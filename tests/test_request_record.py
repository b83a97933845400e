"""One request, one record — driven through ``QueryFrontend.dispatch``.

Every outcome of a dispatch (served, refused, shed, crashed) appends exactly
one :class:`~repro.obs.context.RequestRecord` to the one ring; the record
alone says where the time went (nested phases whose self times add up to
its duration), whether the cache hit, how long it queued, and which log
lines belong to it. The guard at the bottom keeps the four structures this
replaced from coming back.
"""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.obs.context import current_record
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving.frontend import QueryFrontend
from repro.text.sequence_extractor import UserEntitySequence


class TickingClock(ManualClock):
    """Every ``perf()`` read moves time one microsecond: phase durations are
    non-zero and deterministic (they count the clock reads inside)."""

    def perf(self) -> float:
        self.advance(1e-6)
        return super().perf()


def _layered_graph(num_nodes, fanout=4):
    """Dense enough that a cold depth-3 expansion does real work."""
    edges, weights = [], []
    for u in range(num_nodes - fanout):
        for j in range(1, fanout + 1):
            edges.append((u, u + j))
            weights.append(0.5 + (j % 3) * 0.1)
    return EntityGraph.from_edge_list(num_nodes, edges, weights, [0] * len(edges))


def build_frontend(world, obs, root, **frontend_options) -> QueryFrontend:
    """Hand-activated stack (no TRMP training) behind a front end."""
    system = EGLSystem(world, artifact_root=root, obs=obs)
    reasoner = GraphReasoner(_layered_graph(world.num_entities), system.pipeline.entity_dict)
    system.runtime.activate_graph(reasoner, version=1, tag="week-0")
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(30)
    }
    prefs = PreferenceStore(embeddings).build(sequences, world.num_users)
    system.runtime.activate_preferences(prefs, version=1, tag="daily-1")
    return QueryFrontend(EGLService(system), **frontend_options)


@pytest.fixture()
def frontend(world, tmp_path):
    return build_frontend(world, Observability(clock=TickingClock(start=9_000.0)), tmp_path)


def _expand(world, index=0, depth=3):
    return {"phrases": [world.entities[index].name], "depth": depth}


def _phase_names(journey):
    return [name for name, *_ in journey["phases"]]


def self_times(journey) -> dict[str, float]:
    """Phase name → self µs, plus ``"request"`` for the record itself — the
    ``self_times`` rule of ``benchmarks/e2e/trace.py``: a phase's self time
    is its duration minus its children's, every child lies inside its
    parent, and the self times of one request add up to its duration."""
    root = ["request", -1, 0.0, journey["duration_ms"] * 1000]
    open_rows, own = [root], {"request": root[3]}
    for row in journey["phases"]:
        name, depth, start, duration = row
        del open_rows[depth + 1:]
        parent = open_rows[-1]
        assert parent[2] <= start and start + duration <= parent[2] + parent[3] + 1e-6, (
            f"phase {name} leaves its parent {parent[0]}"
        )
        own[parent[0]] -= duration
        own[name] = own.get(name, 0.0) + duration
        open_rows.append(row)
    assert all(value >= -1e-6 for value in own.values()), own
    return own


# ----------------------------------------------------------------------
# Exactly one record per dispatch, on every outcome
# ----------------------------------------------------------------------
class TestOneRecordPerDispatch:
    def test_served_requests(self, frontend, world):
        journeys = frontend.service.obs.journeys
        ids = [e.entity_id for e in world.entities[:3]]
        calls = [
            ("expand", _expand(world)),  # cold
            ("expand", _expand(world)),  # warm
            ("target", {"entity_ids": ids, "k": 5}),
            ("target_batch", {"requests": [{"entity_ids": ids, "k": 5}] * 2}),
        ]
        for n, (endpoint, payload) in enumerate(calls, start=1):
            status, envelope = frontend.dispatch(endpoint, payload)
            assert status == 200 and envelope["ok"]
            assert len(journeys) == n
            journey = journeys.tail(1)[0]
            assert journey["endpoint"] == endpoint
            assert journey["ok"] is True and journey["code"] is None
            assert (journey["graph_version"], journey["preference_version"]) == (1, 1)
            assert current_record() is None
        ring_ids = [j["id"] for j in journeys.tail()]
        assert len(set(ring_ids)) == len(calls)

    def test_invalid_argument(self, frontend, world):
        status, envelope = frontend.dispatch("expand", _expand(world, depth=-1))
        assert status == 400
        (journey,) = frontend.service.obs.journeys.tail()
        assert journey["ok"] is False and journey["code"] == "invalid_argument"
        assert journey["shed"] is False
        assert "runtime" not in _phase_names(journey)

    def test_unknown_endpoint_and_bad_fields_never_reach_the_runtime(self, frontend):
        frontend.dispatch("nope", {})
        frontend.dispatch("expand", {"phrase": "typo"})
        first, second = frontend.service.obs.journeys.tail()
        assert (first["endpoint"], first["code"]) == ("nope", "invalid_argument")
        assert _phase_names(first) == ["to_dict"]  # refused before admission
        assert second["code"] == "invalid_argument"
        assert _phase_names(second) == ["admission", "api", "to_dict"]

    def test_shed_when_full(self, world, tmp_path):
        frontend = build_frontend(
            world, Observability(clock=ManualClock()), tmp_path, max_concurrency=1, max_queue=0
        )
        assert frontend.admission.try_admit()[0]  # occupy the only token
        status, envelope = frontend.dispatch("expand", _expand(world))
        assert (status, envelope["code"]) == (429, "queue_full")
        (journey,) = frontend.service.obs.journeys.tail()
        assert journey["shed"] is True and journey["code"] == "queue_full"
        assert journey["queue_wait_ms"] is None  # refused without waiting
        assert _phase_names(journey) == ["admission", "to_dict"]

    def test_shed_after_waiting_reports_the_wait(self, world, tmp_path):
        frontend = build_frontend(
            world, Observability(clock=ManualClock()), tmp_path,
            max_concurrency=1, max_queue=1, queue_timeout=0.02,
        )
        assert frontend.admission.try_admit()[0]
        status, envelope = frontend.dispatch("expand", _expand(world))
        assert (status, envelope["code"]) == (429, "queue_timeout")
        (journey,) = frontend.service.obs.journeys.tail()
        assert journey["shed"] is True
        assert journey["queue_wait_ms"] >= 15.0

    def test_non_repro_error_closes_the_record_and_unbinds(self, frontend, world):
        def crash(*args, **kwargs):
            raise ValueError("not a ReproError")

        frontend.service.system.runtime.expand = crash
        with pytest.raises(ValueError):
            frontend.dispatch("expand", _expand(world))
        (journey,) = frontend.service.obs.journeys.tail()
        assert journey["ok"] is False and journey["code"] == "internal"
        assert _phase_names(journey) == ["admission", "api"]
        assert current_record() is None
        assert frontend.admission.snapshot()["inflight"] == 0
        metrics = frontend.service.obs.metrics
        assert metrics.get_value("requests_total", endpoint="expand", code="internal") == 1

    def test_service_called_directly_records_nothing(self, frontend, world):
        """Only ``dispatch`` opens a record: the service answers, its
        phases run against no record, and the ring stays empty."""
        service = frontend.service
        response = service.expand({"phrases": [world.entities[0].name]})
        assert response.ok
        assert len(service.obs.journeys) == 0 and current_record() is None

        def crash(*args, **kwargs):
            raise ValueError("not a ReproError")

        service.system.runtime.expand = crash
        with pytest.raises(ValueError):
            service.expand({"phrases": [world.entities[0].name]})
        assert len(service.obs.journeys) == 0 and current_record() is None


# ----------------------------------------------------------------------
# The record explains the request
# ----------------------------------------------------------------------
class TestWaterfall:
    def test_cold_expand_phases_nest_and_self_times_sum_to_duration(self, frontend, world):
        frontend.dispatch("expand", _expand(world))
        (journey,) = frontend.service.obs.journeys.tail()
        names = _phase_names(journey)
        assert names[:4] == ["admission", "api", "runtime", "cache.get"]
        assert names[4:6] == ["khop", "hop.seed"] and names[-2:] == ["cache.put", "to_dict"]
        depth_of = {name: depth for name, depth, *_ in journey["phases"]}
        assert [depth_of[n] for n in ("admission", "api", "runtime", "cache.get",
                                      "khop", "hop.gather", "cache.put", "to_dict")] == [
            0, 0, 1, 2, 2, 3, 2, 0,
        ]
        own = self_times(journey)
        assert sum(own.values()) == pytest.approx(journey["duration_ms"] * 1000, abs=0.01)
        assert own["request"] > 0 and own["api"] > 0 and own["runtime"] > 0
        assert journey["cache"] == "miss"
        assert journey["hops"][0] == 1 and len(journey["hops"]) == 4

    def test_hop_phases_explain_90pct_of_a_cold_khop(self, world, tmp_path):
        """The old ``test_cold_csr_expansion_is_90pct_attributed`` gate: real
        clock, real work, summed over several cold expansions so a single
        scheduler hiccup cannot decide the ratio."""
        frontend = build_frontend(world, Observability(), tmp_path)
        for index in range(5):
            frontend.dispatch("expand", _expand(world, index))
        khop = hops = 0.0
        for journey in frontend.service.obs.journeys.tail():
            assert journey["cache"] == "miss"
            for name, _depth, _start, duration in journey["phases"]:
                if name == "khop":
                    khop += duration
                elif name.startswith("hop."):
                    hops += duration
        assert khop > 0 and hops / khop >= 0.90

    def test_warm_expand_is_a_hit_without_khop(self, frontend, world):
        frontend.dispatch("expand", _expand(world))
        frontend.dispatch("expand", _expand(world))
        cold, warm = frontend.service.obs.journeys.tail()
        assert (cold["cache"], warm["cache"]) == ("miss", "hit")
        assert "khop" in _phase_names(cold)
        assert _phase_names(warm) == ["admission", "api", "runtime", "cache.get", "to_dict"]
        assert warm["hops"] == cold["hops"]

    def test_target_phases(self, frontend, world):
        ids = [e.entity_id for e in world.entities[:3]]
        frontend.dispatch("target", {"entity_ids": ids, "k": 5})
        (journey,) = frontend.service.obs.journeys.tail()
        assert _phase_names(journey)[:5] == [
            "admission", "api", "runtime", "targeting", "preference.topk",
        ]
        assert journey["cache"] is None and journey["hops"] is None
        self_times(journey)  # nests

    def test_expand_miss_log_line_carries_the_record_id(self, frontend, world):
        frontend.dispatch("expand", _expand(world))
        frontend.dispatch("expand", _expand(world))  # warm: no second line
        cold, _warm = frontend.service.obs.journeys.tail()
        (line,) = frontend.service.obs.logger.records(event="expand_miss")
        assert line["request_id"] == cold["id"]
        assert "trace_id" not in line and "span_id" not in line

    def test_profile_aggregates_the_ring(self, frontend, world):
        frontend.dispatch("expand", _expand(world))
        frontend.dispatch("expand", _expand(world))
        payload = frontend.service.profile_payload()
        totals = {row["phase"]: row for row in payload["phases"]}
        assert totals["api;runtime;cache.get"]["count"] == 2
        assert totals["api;runtime;khop"]["count"] == 1
        assert totals["api"]["self_us"] <= totals["api"]["total_us"]
        assert payload["cache"]["hits"] == 1 and "resources" in payload


# ----------------------------------------------------------------------
# Concurrency and equivalence
# ----------------------------------------------------------------------
class TestConcurrentRecords:
    def test_threads_mint_distinct_ids_and_keep_their_own_phases(self, world, tmp_path):
        frontend = build_frontend(
            world, Observability(), tmp_path, max_concurrency=8, max_queue=64, queue_timeout=5.0
        )
        per_thread, n_threads = 20, 8  # 160 records: the ring keeps them all
        ids = [e.entity_id for e in world.entities[:3]]

        def worker(tid: int) -> None:
            for i in range(per_thread):
                if (tid + i) % 2:
                    status, _ = frontend.dispatch("expand", _expand(world, tid))
                else:
                    status, _ = frontend.dispatch("target", {"entity_ids": ids, "k": 5})
                assert status == 200

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        journeys = frontend.service.obs.journeys.tail()
        assert len(journeys) == per_thread * n_threads  # every dispatch, once
        counted = frontend.service.obs.metrics.series("requests_total")
        assert sum(series.value for _, series in counted) == per_thread * n_threads
        assert len({j["id"] for j in journeys}) == per_thread * n_threads
        for journey in journeys:
            names = _phase_names(journey)
            # Exactly its own chain: no phase of another request leaked in.
            assert [names.count(n) for n in ("admission", "api", "runtime", "to_dict")] == [
                1, 1, 1, 1,
            ]
            if journey["endpoint"] == "expand":
                assert "targeting" not in names and names.count("cache.get") == 1
            else:
                assert "cache.get" not in names and names.count("targeting") == 1
            self_times(journey)

    def test_answers_equal_with_and_without_the_record(self, world, tmp_path):
        recorded = build_frontend(world, Observability(clock=ManualClock()), tmp_path / "recorded")
        bare = build_frontend(world, Observability.disabled(), tmp_path / "bare")
        ids = [e.entity_id for e in world.entities[:4]]
        calls = [
            ("expand", _expand(world)),
            ("expand", _expand(world)),
            ("target", {"entity_ids": ids, "k": 7, "weights": [1.0, 0.5, 0.25, 2.0]}),
            ("target_batch", {"requests": [{"entity_ids": ids[:2], "k": 3}] * 2}),
            ("expand", _expand(world, depth=0)),
        ]
        for endpoint, payload in calls:
            status_a, with_record = recorded.dispatch(endpoint, payload)
            status_b, without = bare.dispatch(endpoint, payload)
            assert status_a == status_b
            assert set(with_record) == set(without) == {
                "ok", "elapsed_ms", "payload", "error", "code",
                "graph_version", "preference_version", "timestamp",
            }
            for key in ("ok", "payload", "error", "code", "graph_version",
                        "preference_version"):
                assert with_record[key] == without[key]
        assert len(recorded.service.obs.journeys) == len(calls)
        assert len(bare.service.obs.journeys) == 0


# ----------------------------------------------------------------------
# Guard: exactly one per-request structure
# ----------------------------------------------------------------------
def test_one_record_per_request():
    src = Path(repro.__file__).parent
    gone = {
        "Tracer", "PhaseProfiler", "JourneyLog", "span_fast",
        "observe_with_exemplar", "render_openmetrics", "approx_value_bytes",
    }
    assert not (src / "obs" / "trace.py").exists()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                names.add(node.asname or "")
        assert not names & gone, f"{path.relative_to(src)}: {sorted(names & gone)}"
        if path.relative_to(src).as_posix() == "online/api.py":
            assert "asdict" not in names
