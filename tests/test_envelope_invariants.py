"""Envelope and record invariants over the socket, per endpoint and outcome.

Every POST — served, refused by the service, refused by the listener, or
shed by admission — goes through ``QueryFrontend.dispatch`` and leaves:

* exactly one request record, whose ``code`` and artifact versions are the
  envelope's;
* a ``code`` on every non-2xx envelope (``None`` on a 2xx);
* ``retry_after_ms`` and a ``Retry-After`` header on a shed, and neither on
  anything else, and a record flagged ``shed`` exactly when the envelope
  carries them (a deadline that runs out in the backend is no shed);
* exactly one step of ``requests_total``, under that endpoint and code.

A GET opens no record and counts nothing there. (The draining case
absorbs the front end's former shed-metric test.)
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving.frontend import MAX_BODY_BYTES, QueryFrontend
from repro.text.sequence_extractor import UserEntitySequence


def build_system(world, root, activate: bool = True) -> EGLSystem:
    """Hand-activated artifacts on a frozen clock (no TRMP training)."""
    system = EGLSystem(
        world, artifact_root=root, obs=Observability(clock=ManualClock(start=7_000.0))
    )
    if activate:
        graph = EntityGraph.from_edge_list(
            world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
        )
        system.runtime.activate_graph(
            GraphReasoner(graph, system.pipeline.entity_dict), version=2, tag="week-1"
        )
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(40)
        }
        store = PreferenceStore(rng.normal(size=(world.num_entities, 6)))
        system.runtime.activate_preferences(
            store.build(sequences, world.num_users), version=5, tag="daily-5"
        )
    return system


def ok_bodies(world) -> dict[str, dict]:
    return {
        "expand": {"phrases": [world.entities[0].name], "depth": 2},
        "target": {"entity_ids": [0, 1], "k": 3},
        "target_batch": {"requests": [{"entity_ids": [0, 1], "k": 3}]},
        "feedback": {"seed_entity_id": 0, "chosen_entity_ids": [1]},
    }


INVALID = {
    "expand": {"phrases": []},
    "target": {"entity_ids": [0], "k": 0},
    "target_batch": {"requests": []},
    "feedback": {"seed_entity_id": -1, "chosen_entity_ids": [1]},
}

#: Outcomes shed by admission in this module; all carry a retry hint.
SHEDS = {"queue_full", "draining", "deadline_exceeded"}


def post(path: str, body: bytes, content_length=None) -> bytes:
    length = len(body) if content_length is None else content_length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


def exchange(frontend: QueryFrontend, request: bytes) -> tuple[int, dict, bytes]:
    """One request over a fresh connection: ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", frontend.port), timeout=5.0) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as reader:
            status_line = reader.readline().decode("latin-1")
            headers = {}
            while (line := reader.readline().decode("latin-1").rstrip("\r\n")):
                name, value = line.split(":", 1)
                headers[name.lower()] = value.strip()
            body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def counts(system) -> dict[tuple[str, str], float]:
    return {
        (labels["endpoint"], labels["code"]): series.value
        for labels, series in system.obs.metrics.series("requests_total")
    }


# case id → (endpoint, outcome). The transport outcomes are per route.
CASES = [
    (endpoint, outcome)
    for endpoint in ("expand", "target", "target_batch", "feedback")
    for outcome in (
        "ok", "invalid_argument", "unknown_key", "not_ready", "queue_full", "draining",
        "deadline_exceeded", "runtime_deadline", "bad_json", "too_long",
    )
    # Feedback needs no artifact and takes no budget.
    if not (
        endpoint == "feedback"
        and outcome in ("not_ready", "deadline_exceeded", "runtime_deadline")
    )
] + [("nope", "unknown_route")]

#: outcome → (HTTP status, envelope code).
EXPECTED = {
    "ok": (200, None),
    "invalid_argument": (400, "invalid_argument"),
    "unknown_key": (400, "invalid_argument"),
    "not_ready": (503, "not_ready"),
    "queue_full": (429, "queue_full"),
    "draining": (503, "draining"),
    "deadline_exceeded": (504, "deadline_exceeded"),
    "runtime_deadline": (504, "deadline_exceeded"),
    "bad_json": (400, "invalid_argument"),
    "too_long": (413, "invalid_argument"),
    "unknown_route": (400, "invalid_argument"),
}


@pytest.mark.parametrize(
    ("endpoint", "outcome"), CASES, ids=[f"{e}-{o}" for e, o in CASES]
)
def test_one_record_one_count_one_envelope_shape(world, tmp_path, endpoint, outcome):
    system = build_system(world, tmp_path, activate=outcome != "not_ready")
    frontend = QueryFrontend(EGLService(system), max_concurrency=1, max_queue=0)
    body = ok_bodies(world).get(endpoint, {})
    request = None
    if outcome == "invalid_argument":
        body = INVALID[endpoint]
    elif outcome == "unknown_key":
        body = {**body, "bogus": 1}
    elif outcome == "bad_json":
        request = post(f"/{endpoint}", b"{not json")
    elif outcome == "too_long":
        request = post(f"/{endpoint}", b"", MAX_BODY_BYTES + 1)
    elif outcome == "queue_full":
        assert frontend.admission.try_admit()[0]  # hold the only token
    elif outcome == "draining":
        frontend.admission.begin_drain()
    elif outcome == "deadline_exceeded":
        body = {**body, "timeout_ms": 50.0}
        admit = frontend.admission.try_admit

        def admit_after_the_budget(max_wait=None):
            system.obs.clock.advance(1.0)  # the whole budget went to queueing
            return admit(max_wait)

        frontend.admission.try_admit = admit_after_the_budget
    elif outcome == "runtime_deadline":
        body = {**body, "timeout_ms": 50.0}
        answer = getattr(system.runtime, endpoint)

        def answer_after_the_budget(*args, **kwargs):
            system.obs.clock.advance(1.0)  # the budget ran out in the backend
            return answer(*args, **kwargs)

        setattr(system.runtime, endpoint, answer_after_the_budget)
    if request is None:
        request = post(f"/{endpoint}", json.dumps(body).encode())

    before = counts(system)
    with frontend:
        status, headers, raw = exchange(frontend, request)
        if outcome == "queue_full":
            frontend.admission.release()
    envelope = json.loads(raw)
    expected_status, expected_code = EXPECTED[outcome]
    assert (status, envelope["code"]) == (expected_status, expected_code)
    assert (envelope["code"] is None) == (200 <= status < 300)

    (record,) = system.obs.journeys.tail()  # exactly one record
    assert record["endpoint"] == endpoint
    for key in ("ok", "code", "graph_version", "preference_version"):
        assert record[key] == envelope[key], key
    if outcome != "not_ready":
        assert (envelope["graph_version"], envelope["preference_version"]) == (2, 5)

    if outcome == "draining":
        assert system.obs.metrics.get_value("frontend_draining") == 1.0

    shed = outcome in SHEDS
    assert record["shed"] is shed
    assert ("retry_after_ms" in envelope) == shed
    assert ("retry-after" in headers) == shed
    if shed:
        assert int(headers["retry-after"]) >= 1 and envelope["retry_after_ms"] > 0

    after = counts(system)
    label = endpoint if endpoint in QueryFrontend.ANSWERS else "other"
    key = (label, envelope["code"] or "ok")
    assert after.pop(key) == before.pop(key, 0.0) + 1
    assert after == before  # no other series moved


def test_get_routes_open_no_record_and_count_no_request(world, tmp_path):
    system = build_system(world, tmp_path)
    frontend = QueryFrontend(EGLService(system))
    frontend.dispatch("expand", ok_bodies(world)["expand"])
    before = counts(system)
    with frontend:
        for route in ("/health", "/metrics", "/journeys", "/profile", "/drift", "/frontend"):
            status, _, _ = exchange(frontend, f"GET {route} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            assert status == 200, route
    assert len(system.obs.journeys) == 1
    assert counts(system) == before
    http = {
        labels["path"] for labels, _ in system.obs.metrics.series("frontend_http_requests_total")
    }
    assert "/expand" not in http and "/health" in http


# ----------------------------------------------------------------------
# One validation function per endpoint
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("endpoint", "extra"),
    [
        ("expand", {"bogus": 1}),
        ("target", {"bogus": 1}),
        ("target_batch", {"bogus": 1}),
        ("feedback", {"bogus": 1}),
        ("feedback", {"timeout_ms": 100}),
    ],
    ids=["expand", "target", "target_batch", "feedback", "feedback-timeout"],
)
def test_unknown_keys_are_refused_on_every_endpoint(world, tmp_path, endpoint, extra):
    system = build_system(world, tmp_path)
    body = {**ok_bodies(world)[endpoint], **extra}
    status, envelope = QueryFrontend(EGLService(system)).dispatch(endpoint, body)
    assert (status, envelope["code"]) == (400, "invalid_argument")
    assert sorted(extra)[0] in envelope["error"]
    assert len(system.feedback) == 0


def test_an_unknown_key_in_a_batch_item_is_refused(world, tmp_path):
    system = build_system(world, tmp_path)
    body = {"requests": [{"entity_ids": [0], "k": 3, "bogus": 1}]}
    status, envelope = QueryFrontend(EGLService(system)).dispatch("target_batch", body)
    assert (status, envelope["code"]) == (400, "invalid_argument")


def test_target_batch_top_level_timeout_bounds_the_runtime_pass(world, tmp_path):
    system = build_system(world, tmp_path)
    frontend = QueryFrontend(EGLService(system))
    runtime = system.runtime
    scoring = runtime.target_batch
    seen = []

    def slow_pass(active, entity_sets, k=50, weights=None, deadline=None):
        seen.append(deadline)
        system.obs.clock.advance(1.0)  # the pass outlives a 500 ms budget
        return scoring(active, entity_sets, k=k, weights=weights, deadline=deadline)

    runtime.target_batch = slow_pass
    body = {"requests": [{"entity_ids": [0, 1], "k": 3}], "timeout_ms": 500.0}
    status, envelope = frontend.dispatch("target_batch", body)
    assert (status, envelope["code"]) == (504, "deadline_exceeded")
    assert seen[0].timeout == pytest.approx(0.5)
    # The strictest budget wins: an item's tighter one, the top level's looser.
    body["requests"][0]["timeout_ms"] = 100.0
    body["timeout_ms"] = 10_000.0
    frontend.dispatch("target_batch", body)
    assert seen[1].timeout == pytest.approx(0.1)


@pytest.mark.parametrize("timeout_ms", ["5", -1, True, float("inf")])
def test_target_batch_top_level_timeout_is_validated(world, tmp_path, timeout_ms):
    system = build_system(world, tmp_path)
    body = {"requests": [{"entity_ids": [0], "k": 3}], "timeout_ms": timeout_ms}
    status, envelope = QueryFrontend(EGLService(system)).dispatch("target_batch", body)
    assert (status, envelope["code"]) == (400, "invalid_argument")
    assert "timeout_ms" in envelope["error"]
