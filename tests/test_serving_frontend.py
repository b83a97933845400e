"""Front-end admission control: sheds, backpressure, drain, HTTP surface.

``QueryFrontend.dispatch`` is exercised directly (the transport-free
core) for admission/shed/deadline/error-code semantics; one end-to-end test
drives the real ``ThreadingHTTPServer`` over a socket, covering status
codes, ``Retry-After`` headers and the merged GET telemetry routes.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph import EntityGraph
from repro.obs import Observability
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence
from repro.serving.frontend import (
    MAX_BODY_BYTES,
    AdmissionController,
    QueryFrontend,
    http_status,
)


@pytest.fixture()
def service(world, tmp_path):
    system = EGLSystem(world, artifact_root=tmp_path, obs=Observability())
    graph = EntityGraph.from_edge_list(
        world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
    )
    reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
    system.runtime.activate_graph(reasoner, version=1, tag="week-0")
    return EGLService(system)


@pytest.fixture()
def served(service, world):
    """``service`` with a preference generation too, so /target answers."""
    rng = np.random.default_rng(0)
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(40)
    }
    store = PreferenceStore(rng.normal(size=(world.num_entities, 6)))
    service.system.runtime.activate_preferences(
        store.build(sequences, world.num_users), version=1
    )
    return service


#: Mistyped fields, one per case: each is the caller's mistake (400).
MISTYPED = [
    pytest.param("expand", {"phrases": ["x"], "depth": "2"}, id="depth-str"),
    pytest.param("expand", {"phrases": ["x"], "depth": 2.5}, id="depth-float"),
    pytest.param("expand", {"phrases": ["x"], "max_entities": "3"}, id="max_entities-str"),
    pytest.param("expand", {"phrases": ["x"], "min_score": "0"}, id="min_score-str"),
    pytest.param("expand", {"phrases": ["x"], "timeout_ms": "5"}, id="expand-timeout-str"),
    pytest.param("expand", {"phrases": [1]}, id="phrase-int"),
    pytest.param("expand", {"phrases": "x"}, id="phrases-str"),
    pytest.param("target", {"entity_ids": [0, 1], "k": "5"}, id="k-str"),
    pytest.param("target", {"entity_ids": [0, 1], "k": 2.5}, id="k-float"),
    pytest.param("target", {"entity_ids": [0, 1], "weights": ["a", 1.0]}, id="weight-str"),
    pytest.param("target", {"entity_ids": [0, 1], "weights": 3}, id="weights-int"),
    pytest.param("target", {"entity_ids": [0, 1], "timeout_ms": "5"}, id="target-timeout-str"),
    pytest.param(
        "target_batch", {"requests": [{"entity_ids": [0, 1], "k": None}]}, id="batch-k-null"
    ),
]


def _blocking_backend(service, release: threading.Event, entered: threading.Event):
    """Replace the runtime's ``expand`` with one that parks until released."""
    real = service.system.runtime.expand

    def blocked(*args, **kwargs):
        entered.set()
        release.wait(timeout=10.0)
        return real(*args, **kwargs)

    service.system.runtime.expand = blocked
    return real


class TestAdmissionController:
    def test_tokens_then_queue_then_shed(self):
        admission = AdmissionController(max_concurrency=1, max_queue=1, queue_timeout=0.05)
        assert admission.try_admit()[0] is True
        # Queue is full once a second caller is waiting; a third sheds
        # immediately rather than waiting behind it.
        waiter_result = []

        def waiter():
            waiter_result.append(admission.try_admit(max_wait=5.0))

        t = threading.Thread(target=waiter)
        t.start()
        for _ in range(100):  # wait until the waiter is queued
            if admission.snapshot()["waiting"] == 1:
                break
            time.sleep(0.005)
        admitted, reason, _ = admission.try_admit()
        assert (admitted, reason) == (False, "queue_full")
        admission.release()  # frees the token: the queued waiter claims it
        t.join(timeout=5.0)
        assert waiter_result[0][0] is True

    def test_queue_timeout_sheds_after_bounded_wait(self):
        admission = AdmissionController(max_concurrency=1, max_queue=4, queue_timeout=0.05)
        assert admission.try_admit()[0] is True
        admitted, reason, waited = admission.try_admit()
        assert (admitted, reason) == (False, "queue_timeout")
        assert waited >= 0.04  # actually waited the bounded window

    def test_drain_wakes_queued_waiters_and_awaits_inflight(self):
        admission = AdmissionController(max_concurrency=1, max_queue=4, queue_timeout=5.0)
        assert admission.try_admit()[0] is True
        results = []
        t = threading.Thread(target=lambda: results.append(admission.try_admit()))
        t.start()
        for _ in range(100):
            if admission.snapshot()["waiting"] == 1:
                break
            time.sleep(0.005)
        admission.begin_drain()
        t.join(timeout=5.0)  # waiter must wake immediately, not time out
        assert results[0][:2] == (False, "draining")
        assert admission.try_admit()[:2] == (False, "draining")
        assert admission.await_idle(timeout=0.05) is False  # one still in flight
        admission.release()
        assert admission.await_idle(timeout=5.0) is True

    def test_zero_wait_means_admit_or_shed(self):
        admission = AdmissionController(max_concurrency=1, max_queue=8, queue_timeout=5.0)
        assert admission.try_admit(max_wait=0.0)[0] is True
        start = time.monotonic()
        admitted, reason, _ = admission.try_admit(max_wait=0.0)
        assert (admitted, reason) == (False, "queue_full")
        assert time.monotonic() - start < 1.0  # no queueing happened


class TestDispatch:
    def test_expand_ok(self, service, world):
        frontend = QueryFrontend(service, max_concurrency=2)
        status, envelope = frontend.dispatch(
            "expand", {"phrases": [world.entities[0].name], "depth": 2}
        )
        assert status == 200
        assert envelope["ok"] is True
        assert envelope["graph_version"] == 1
        assert envelope["payload"]["entities"]

    def test_unknown_endpoint_and_bad_fields_are_400(self, service):
        frontend = QueryFrontend(service)
        status, envelope = frontend.dispatch("nope", {})
        assert status == 400 and envelope["code"] == "invalid_argument"
        status, envelope = frontend.dispatch("expand", {"bogus_field": 1})
        assert status == 400 and envelope["code"] == "invalid_argument"
        status, envelope = frontend.dispatch("target_batch", {"requests": "nope"})
        assert status == 400 and envelope["code"] == "invalid_argument"

    def test_queue_full_sheds_429_with_retry_after(self, service, world):
        release, entered = threading.Event(), threading.Event()
        _blocking_backend(service, release, entered)
        frontend = QueryFrontend(
            service, max_concurrency=1, max_queue=0, queue_timeout=0.02
        )
        phrase = world.entities[0].name
        blocker = threading.Thread(
            target=frontend.dispatch, args=("expand", {"phrases": [phrase]})
        )
        blocker.start()
        assert entered.wait(timeout=5.0)
        try:
            status, envelope = frontend.dispatch("expand", {"phrases": [phrase]})
            assert status == 429
            assert envelope["ok"] is False
            assert envelope["code"] == "queue_full"
            assert envelope["retry_after_ms"] >= 50
        finally:
            release.set()
            blocker.join(timeout=10.0)
        stats = frontend.stats()
        assert stats["admission"]["shed"]["queue_full"] == 1

    def test_queue_timeout_sheds_when_token_never_frees(self, service, world):
        release, entered = threading.Event(), threading.Event()
        _blocking_backend(service, release, entered)
        frontend = QueryFrontend(
            service, max_concurrency=1, max_queue=4, queue_timeout=0.05
        )
        phrase = world.entities[0].name
        blocker = threading.Thread(
            target=frontend.dispatch, args=("expand", {"phrases": [phrase]})
        )
        blocker.start()
        assert entered.wait(timeout=5.0)
        try:
            status, envelope = frontend.dispatch("expand", {"phrases": [phrase]})
            assert status == 429
            assert envelope["code"] == "queue_timeout"
        finally:
            release.set()
            blocker.join(timeout=10.0)

    def test_draining_sheds_503(self, service, world):
        frontend = QueryFrontend(service)
        frontend.admission.begin_drain()
        status, envelope = frontend.dispatch(
            "expand", {"phrases": [world.entities[0].name]}
        )
        assert status == 503
        assert envelope["code"] == "draining"
        assert envelope["retry_after_ms"] == 1000.0

    def test_deadline_spent_queueing_sheds_504(self, service, world):
        release, entered = threading.Event(), threading.Event()
        _blocking_backend(service, release, entered)
        frontend = QueryFrontend(
            service, max_concurrency=1, max_queue=4, queue_timeout=0.2
        )
        phrase = world.entities[0].name
        blocker = threading.Thread(
            target=frontend.dispatch, args=("expand", {"phrases": [phrase]})
        )
        blocker.start()
        assert entered.wait(timeout=5.0)
        try:
            # 20ms budget < queue_timeout: the wait is clipped to the
            # budget, which expires while queued → shed as 504, and the
            # runtime is never touched.
            status, envelope = frontend.dispatch(
                "expand", {"phrases": [phrase], "timeout_ms": 20.0}
            )
            assert status in (429, 504)
            assert envelope["code"] in ("queue_timeout", "deadline_exceeded")
        finally:
            release.set()
            blocker.join(timeout=10.0)

    @pytest.mark.parametrize(("endpoint", "payload"), MISTYPED)
    def test_mistyped_fields_are_400(self, served, endpoint, payload):
        status, envelope = QueryFrontend(served).dispatch(endpoint, payload)
        assert (status, envelope["code"]) == (400, "invalid_argument")

    def test_backend_faults_answer_their_own_code(self, service, world):
        """Each backend fault is one 500 with its own code; none refuses a
        later request."""
        frontend = QueryFrontend(service)
        real = service.system.runtime.expand

        def broken(*args, **kwargs):
            raise StorageError("disk on fire")

        service.system.runtime.expand = broken
        phrase = world.entities[0].name
        for _ in range(6):
            status, envelope = frontend.dispatch("expand", {"phrases": [phrase]})
            assert (status, envelope["code"]) == (500, "storage_error")
            assert "retry_after_ms" not in envelope
        service.system.runtime.expand = real
        status, envelope = frontend.dispatch("expand", {"phrases": [phrase]})
        assert status == 200 and envelope["ok"]

    def test_caller_errors_leave_other_requests_served(self, served):
        """One caller's bad requests are that caller's 400s: the next
        request, from anyone, is served."""
        frontend = QueryFrontend(served)
        for _ in range(5):
            status, envelope = frontend.dispatch("expand", {"phrases": []})
            assert (status, envelope["code"]) == (400, "invalid_argument")
        status, envelope = frontend.dispatch("target", {"entity_ids": [0, 1], "k": 3})
        assert status == 200 and envelope["ok"]
        assert len(envelope["payload"]["users"]) == 3


class TestHTTPSurface:
    def test_end_to_end_over_sockets(self, service, world):
        frontend = QueryFrontend(service, max_concurrency=4)
        phrase = world.entities[0].name
        with frontend:
            base = frontend.url
            body = json.dumps({"phrases": [phrase], "depth": 2}).encode()
            request = urllib.request.Request(
                f"{base}/expand", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
                envelope = json.loads(response.read())
            assert envelope["ok"] is True and envelope["payload"]["entities"]

            # Malformed JSON → 400 envelope, not a stack trace.
            bad = urllib.request.Request(
                f"{base}/expand", data=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=10.0)
            assert excinfo.value.code == 400

            # Merged GET surface: frontend stats + service telemetry.
            with urllib.request.urlopen(f"{base}/frontend", timeout=10.0) as response:
                stats = json.loads(response.read())
            assert stats["admission"]["max_concurrency"] == 4
            with urllib.request.urlopen(f"{base}/metrics", timeout=10.0) as response:
                exposition = response.read().decode()
            assert 'requests_total{code="ok",endpoint="expand"} 1' in exposition

            # Draining: shed with Retry-After header.
            frontend.admission.begin_drain()
            shed = urllib.request.Request(
                f"{base}/expand", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(shed, timeout=10.0)
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        assert frontend._httpd is None  # stop() tore the listener down

    def test_unknown_get_route_is_404_with_code(self, service):
        with QueryFrontend(service) as frontend:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{frontend.url}/alerts", timeout=10.0)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["code"] == "not_found"
        assert "/alerts" not in body["routes"] and "/drift" in body["routes"]

    def test_failing_get_route_is_500_with_code(self, service, monkeypatch):
        def broken():
            raise RuntimeError("route bug")

        monkeypatch.setattr(service, "profile_payload", broken)
        with QueryFrontend(service) as frontend:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{frontend.url}/profile", timeout=10.0)
        assert excinfo.value.code == 500
        body = json.loads(excinfo.value.read())
        assert body["code"] == "internal"
        assert body["error"] == "RuntimeError: route bug"

    def test_stop_drains_inflight_requests(self, service, world):
        release, entered = threading.Event(), threading.Event()
        _blocking_backend(service, release, entered)
        frontend = QueryFrontend(service, max_concurrency=2)
        phrase = world.entities[0].name
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                frontend.dispatch("expand", {"phrases": [phrase]})
            )
        )
        worker.start()
        assert entered.wait(timeout=5.0)
        releaser = threading.Timer(0.1, release.set)
        releaser.start()
        try:
            drained = frontend.stop(drain_timeout=10.0)
        finally:
            release.set()
            worker.join(timeout=10.0)
            releaser.cancel()
        assert drained is True
        # The in-flight request finished normally despite the drain.
        assert results and results[0][0] == 200


def _post(path: str, body: bytes, content_length=None) -> bytes:
    length = len(body) if content_length is None else content_length
    return (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


def _read_response(reader) -> tuple[int, dict, bytes]:
    """One response off ``sock.makefile("rb")`` — buffered, so a pipelined
    second response stays queued for the next call."""
    status_line = reader.readline().decode("latin-1")
    assert status_line, "connection closed before a response"
    headers = {}
    while (line := reader.readline().decode("latin-1").rstrip("\r\n")):
        name, value = line.split(":", 1)
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    assert len(body) == int(headers["content-length"])
    return int(status_line.split()[1]), headers, body


#: name → (request, status, connection stays usable). Only the first can be
#: framed, so only it keeps the connection; the others carry no body, which
#: is all a server may assume about a length it cannot trust.
UNREADABLE_BODIES = {
    "unknown-route-with-body": (_post("/nope", b'{"phrases": ["x"]}'), 400, True),
    "non-integer-length": (_post("/expand", b"", "abc"), 400, False),
    "negative-length": (_post("/expand", b"", -1), 400, False),
    "over-limit-length": (_post("/expand", b"", MAX_BODY_BYTES + 1), 413, False),
}


class TestReadOrClose:
    @pytest.mark.parametrize("case", sorted(UNREADABLE_BODIES))
    def test_refusal_never_desynchronises_the_connection(self, service, world, case):
        """Every refusal is answered at once (1 s socket timeouts), and the
        next valid request — same connection when the body could be
        consumed, a fresh one when the listener had to hang up — is too."""
        request, status, stays_open = UNREADABLE_BODIES[case]
        valid = _post("/expand", json.dumps({"phrases": [world.entities[0].name]}).encode())

        def connect(frontend):
            return socket.create_connection(("127.0.0.1", frontend.port), timeout=1.0)

        with QueryFrontend(service) as frontend:
            with connect(frontend) as sock, sock.makefile("rb") as reader:
                sock.sendall(request)
                got, headers, body = _read_response(reader)
                assert got == status
                assert json.loads(body)["code"] == "invalid_argument"
                if stays_open:
                    sock.sendall(valid)
                    assert _read_response(reader)[0] == 200
                else:
                    assert headers["connection"] == "close"
                    assert reader.read(1) == b""  # the listener hung up
            with connect(frontend) as fresh, fresh.makefile("rb") as reader:
                fresh.sendall(valid + valid)  # pipelined: framing is exact
                assert _read_response(reader)[0] == 200
                assert _read_response(reader)[0] == 200


class TestStatusMapping:
    def test_http_status_table(self):
        assert http_status(None) == 200
        assert http_status("invalid_argument") == 400
        assert http_status("queue_full") == 429
        assert http_status("queue_timeout") == 429
        assert http_status("draining") == 503
        assert http_status("not_ready") == 503
        assert http_status("deadline_exceeded") == 504
        assert http_status("internal") == 500
        assert http_status("storage_error") == 500
