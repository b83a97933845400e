"""The one HTTP listener: admission control, backpressure, drain, telemetry.

The paper's online stage answers "heavy traffic from millions of users";
everything below this module already serves one request correctly — this
module makes *many at once* safe. A :class:`QueryFrontend` drives an
:class:`~repro.online.api.EGLService` from a thread pool (stdlib
``ThreadingHTTPServer``): POST queries go through :meth:`dispatch`,
GET/HEAD requests render the service's telemetry routes (``/metrics``,
``/health``, …, plus ``/frontend``), and every response leaves through one
responder in one socket write. Queries run behind an
:class:`AdmissionController` that enforces:

* **token-style concurrency** — at most ``max_concurrency`` requests
  execute simultaneously; the GIL-bound read path saturates quickly, and
  running more threads than that only adds queueing *inside* the kernel
  where no deadline can shed it;
* **bounded queueing** — up to ``max_queue`` requests wait (at most
  ``queue_timeout`` seconds, clipped to the request's own deadline) for a
  token; the queue absorbs bursts without letting latency grow unbounded;
* **early shedding** — anything beyond the queue is rejected *immediately*
  with a structured envelope (``code`` of ``queue_full`` /
  ``queue_timeout`` / ``draining``) mapped to HTTP 429/503 plus a
  ``Retry-After`` hint. Overload is absorbed by explicit sheds, never by
  timeouts or errors — the load benchmark's acceptance gate.

Resilience composition (nothing new — the existing machinery, arranged):

* a front-end :class:`~repro.resilience.CircuitBreaker` watches backend
  *fault* codes (``internal``/``storage_error``/…; sheds and caller
  mistakes don't count) and, while open, rejects before admission with
  503 ``circuit_open``;
* per-request :class:`~repro.resilience.Deadline` budgets span queue time
  too: the queue wait is clipped to the remaining budget, a request whose
  budget expired while queued is shed as ``deadline_exceeded`` without
  touching the runtime, and the backend receives only the *remaining*
  budget.

Clocks: admission *waits* use the real ``threading.Condition`` timeout
(wall seconds — a queue full of real threads cannot wait on a manual
clock), while deadlines and envelope timestamps ride the service's
injectable clock, exactly like the rest of the stack.

Hot-swap interaction: the front end adds nothing to swap safety — each
admitted request snapshots the active generation via
``ServingRuntime.acquire()`` and serves wholly from it; the swap lock in
the runtime serializes writers only. The property test in
``tests/test_concurrent_serving.py`` proves no torn reads under
concurrent in-flight expansions.

Shutdown is a graceful drain: ``stop()`` flips the controller into
draining (new arrivals shed 503, queued waiters wake and shed), waits for
in-flight requests to finish (bounded), then tears the listener down.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ConfigError, ReproError
from repro.obs.context import annotate, phase
from repro.online.api import (
    JSON_CONTENT_TYPE,
    ApiResponse,
    EGLService,
    ExpandRequest,
    TargetRequest,
    error_code,
)
from repro.resilience import CircuitBreaker, Deadline

#: Largest request body the listener will read, in bytes. A longer
#: ``Content-Length`` is refused (413) without reading it.
MAX_BODY_BYTES = 1 << 20

#: Envelope code → HTTP status. Sheds are 429 (back off and retry) or 503
#: (service-level condition); expired budgets are 504; anything unmapped
#: is a 500 (real fault).
HTTP_STATUS_BY_CODE: dict = {
    None: 200,
    "invalid_argument": 400,
    "queue_full": 429,
    "queue_timeout": 429,
    "draining": 503,
    "circuit_open": 503,
    "not_ready": 503,
    "deadline_exceeded": 504,
}

#: Envelope codes that count as backend *faults* for the front-end breaker
#: (sheds and caller mistakes must not trip it).
_FAULT_CODES = frozenset(
    {"internal", "storage_error", "corrupt_artifact", "checkpoint_failed"}
)


def http_status(code: str | None) -> int:
    """HTTP status for one envelope code (500 for unmapped fault codes)."""
    return HTTP_STATUS_BY_CODE.get(code, 500)


class AdmissionController:
    """Token-counting admission with a bounded wait queue and drain.

    State is one :class:`threading.Condition` guarding three integers
    (in-flight, waiting, draining flag). ``try_admit`` either claims an
    execution token, waits bounded for one, or reports a shed reason —
    it never blocks unboundedly and never sheds while capacity is free.
    """

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 0.25,
    ) -> None:
        if max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ConfigError("max_queue must be >= 0")
        if queue_timeout < 0:
            raise ConfigError("queue_timeout must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._draining = False
        # Counters guarded by the condition's lock.
        self.admitted = 0
        self.queued = 0
        self.shed: dict[str, int] = {}

    # ------------------------------------------------------------------
    def try_admit(self, max_wait: float | None = None) -> tuple[bool, str, float]:
        """Claim an execution token or report why not.

        Returns ``(admitted, reason, queue_wait_seconds)``; ``reason`` is
        ``""`` on admission, else ``"draining"`` / ``"queue_full"`` /
        ``"queue_timeout"``. ``max_wait`` clips the queue wait below
        ``queue_timeout`` (callers pass the request's remaining deadline
        budget); ``0`` means admit-or-shed without queueing.
        """
        wait_budget = self.queue_timeout if max_wait is None else min(
            max_wait, self.queue_timeout
        )
        with self._cond:
            if self._draining:
                return self._shed("draining")
            if self._inflight < self.max_concurrency:
                self._inflight += 1
                self.admitted += 1
                return (True, "", 0.0)
            if wait_budget <= 0 or self._waiting >= self.max_queue:
                return self._shed("queue_full")
            self._waiting += 1
            self.queued += 1
            queued_at = time.monotonic()
            deadline = queued_at + wait_budget
            try:
                while True:
                    if self._draining:
                        return self._shed("draining", queued_at)
                    if self._inflight < self.max_concurrency:
                        self._inflight += 1
                        self.admitted += 1
                        return (True, "", time.monotonic() - queued_at)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return self._shed("queue_timeout", queued_at)
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1

    def _shed(self, reason: str, queued_at: float | None = None) -> tuple[bool, str, float]:
        # Callers hold the condition lock.
        self.shed[reason] = self.shed.get(reason, 0) + 1
        waited = 0.0 if queued_at is None else time.monotonic() - queued_at
        return (False, reason, waited)

    def release(self) -> None:
        """Return one execution token and wake one queued waiter."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting: new arrivals shed, queued waiters wake and shed."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def await_idle(self, timeout: float = 5.0) -> bool:
        """Block until every in-flight request finished (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def drain(self, timeout: float = 5.0) -> bool:
        """``begin_drain`` + ``await_idle`` — the graceful-shutdown pair."""
        self.begin_drain()
        return self.await_idle(timeout)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._cond:
            return {
                "max_concurrency": self.max_concurrency,
                "max_queue": self.max_queue,
                "queue_timeout": self.queue_timeout,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "draining": self._draining,
                "admitted": self.admitted,
                "queued": self.queued,
                "shed": dict(self.shed),
            }


def _route_path(handler: BaseHTTPRequestHandler) -> str:
    """The request path without query string or trailing slash."""
    return handler.path.split("?", 1)[0].rstrip("/") or "/"


def _build(cls, payload: dict):
    """Payload dict → request dataclass; unknown keys are caller errors."""
    if not isinstance(payload, dict):
        raise ConfigError("request body must be a JSON object")
    try:
        return cls(**payload)
    except TypeError as error:
        raise ConfigError(f"bad request fields: {error}") from None


class QueryFrontend:
    """Thread-pooled query surface over one :class:`EGLService`.

    :meth:`dispatch` is the transport-free core — benchmarks and tests
    drive it directly from threads; the HTTP listener is a thin wrapper
    that JSON-decodes bodies, maps envelopes to statuses/headers and
    serves the service's telemetry routes to GET/HEAD.
    """

    POST_ENDPOINTS = ("expand", "target", "target_batch", "feedback")

    def __init__(
        self,
        service: EGLService,
        max_concurrency: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 0.25,
        breaker: CircuitBreaker | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.admission = AdmissionController(max_concurrency, max_queue, queue_timeout)
        self._clock = service.obs.clock
        self._perf = self._clock.perf
        self._requests = service.obs.journeys
        # Front-end breaker: trips on backend fault codes so a broken
        # backend is rejected fast (503 circuit_open) instead of burning
        # pool threads on requests that will 500.
        self.breaker = breaker or CircuitBreaker(
            "frontend", failure_threshold=5, recovery_timeout=5.0, clock=self._clock
        )
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._log = service.obs.logger.child("frontend")
        metrics = service.obs.metrics
        self._queue_wait_hist = metrics.histogram(
            "frontend_queue_wait_seconds",
            help="Time requests spent waiting for an execution token",
        )
        self._request_counters: dict[tuple[str, str], object] = {}
        self._shed_counters: dict[str, object] = {}
        self._http_counters: dict[tuple[str, int], object] = {}
        self._metrics = metrics
        metrics.add_collector(self._collect)
        self._handlers = {
            "expand": lambda p: self.service.expand(_build(ExpandRequest, p)),
            "target": lambda p: self.service.target(_build(TargetRequest, p)),
            "target_batch": self._handle_target_batch,
            "feedback": self._handle_feedback,
        }
        self._get_routes = dict(service.telemetry_routes())
        self._get_routes["/frontend"] = lambda: (
            JSON_CONTENT_TYPE, json.dumps(self.stats())
        )
        # The only values the request counter's ``path`` label takes.
        self._known_paths = frozenset(self._get_routes) | {
            f"/{endpoint}" for endpoint in self.POST_ENDPOINTS
        }

    # ------------------------------------------------------------------
    # Payload handlers
    # ------------------------------------------------------------------
    def _handle_target_batch(self, payload: dict):
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            raise ConfigError("target_batch body needs a 'requests' list")
        return self.service.target_batch(
            [_build(TargetRequest, item) for item in payload["requests"]]
        )

    def _handle_feedback(self, payload: dict):
        if not isinstance(payload, dict):
            raise ConfigError("request body must be a JSON object")
        try:
            seed = int(payload["seed_entity_id"])
            chosen = [int(e) for e in payload["chosen_entity_ids"]]
        except (KeyError, TypeError, ValueError):
            raise ConfigError(
                "feedback body needs seed_entity_id and chosen_entity_ids"
            ) from None
        return self.service.record_feedback(seed, chosen)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _count_request(self, endpoint: str, outcome: str) -> None:
        counter = self._request_counters.get((endpoint, outcome))
        if counter is None:
            counter = self._metrics.counter(
                "frontend_requests_total",
                help="Front-end requests by endpoint and admission outcome",
                endpoint=endpoint, outcome=outcome,
            )
            self._request_counters[(endpoint, outcome)] = counter
        counter.inc()

    def _count_shed(self, reason: str) -> None:
        counter = self._shed_counters.get(reason)
        if counter is None:
            counter = self._metrics.counter(
                "frontend_shed_total",
                help="Front-end requests shed by admission control",
                reason=reason,
            )
            self._shed_counters[reason] = counter
        counter.inc()

    def _count_http(self, path: str, status: int) -> None:
        if path not in self._known_paths:
            path = "other"  # a port scan must not mint a series per probe
        counter = self._http_counters.get((path, status))
        if counter is None:
            counter = self._metrics.counter(
                "frontend_http_requests_total",
                help="Requests answered by the listener, by path and status",
                path=path, status=str(status),
            )
            self._http_counters[(path, status)] = counter
        counter.inc()

    def _collect(self) -> None:
        snap = self.admission.snapshot()
        self._metrics.gauge(
            "frontend_inflight", help="Requests currently executing"
        ).set(snap["inflight"])
        self._metrics.gauge(
            "frontend_queue_depth", help="Requests waiting for admission"
        ).set(snap["waiting"])
        self._metrics.gauge(
            "frontend_draining", help="1 while the front end is draining"
        ).set(1.0 if snap["draining"] else 0.0)

    # ------------------------------------------------------------------
    # Dispatch (the transport-free core)
    # ------------------------------------------------------------------
    def dispatch(self, endpoint: str, payload: dict) -> tuple[int, dict]:
        """Run one request through admission + service; returns
        ``(http_status, envelope_dict)``.

        Opens the request's :class:`~repro.obs.context.RequestRecord` and
        closes it on every outcome — served, refused, shed or crashed — so
        ``/journeys`` shows the requests that never reached the service
        too. Shed envelopes mirror the
        :class:`~repro.online.api.ApiResponse` shape
        (``ok``/``code``/versions/timestamp) plus ``retry_after_ms`` so a
        shed is indistinguishable from any other envelope to parse, and
        explicitly retryable.
        """
        record = self._requests.open(endpoint)
        try:
            status, envelope = self._serve(endpoint, payload)
        except BaseException:
            self._requests.close(record)
            raise
        self._requests.close(
            record, envelope["ok"], envelope["code"],
            envelope["graph_version"], envelope["preference_version"],
        )
        return (status, envelope)

    def _serve(self, endpoint: str, payload: dict) -> tuple[int, dict]:
        start = self._perf()
        handler = self._handlers.get(endpoint)
        if handler is None:
            return self._error(endpoint, start, "invalid_argument",
                               f"unknown endpoint {endpoint!r}")
        if not self.breaker.allow_request():
            self._count_request(endpoint, "shed")
            self._count_shed("circuit_open")
            return self._error(
                endpoint, start, "circuit_open",
                "front-end breaker is open (backend faulting)",
                retry_after=min(1.0, self.breaker.recovery_timeout),
            )
        deadline = self._request_deadline(payload)
        max_wait = None
        if deadline is not None:
            max_wait = max(0.0, deadline.remaining())
        with phase("admission"):
            admitted, reason, waited = self.admission.try_admit(max_wait)
        if waited:
            self._queue_wait_hist.observe(waited)
            annotate(queue_wait_ms=waited * 1000)
        if not admitted:
            self._count_request(endpoint, "shed")
            self._count_shed(reason)
            return self._error(
                endpoint, start, reason, f"request shed: {reason}",
                retry_after=self._retry_after(reason),
            )
        try:
            if deadline is not None:
                if deadline.expired:
                    # The whole budget went to queueing; shed without
                    # touching the runtime.
                    self._count_request(endpoint, "shed")
                    self._count_shed("deadline_exceeded")
                    return self._error(
                        endpoint, start, "deadline_exceeded",
                        "deadline expired while queued",
                        retry_after=self._retry_after("queue_timeout"),
                    )
                # The backend gets only the remaining budget.
                payload = dict(payload)
                payload["timeout_ms"] = max(deadline.remaining() * 1000, 0.001)
            try:
                with phase("api"):
                    response = handler(payload)
            except ReproError as error:
                self._count_request(endpoint, "admitted")
                return self._error(endpoint, start, error_code(error), str(error))
            self._count_request(endpoint, "admitted")
            if response.code in _FAULT_CODES:
                self.breaker.record_failure(ReproError(response.error or response.code))
            else:
                self.breaker.record_success()
            with phase("to_dict"):
                envelope = response.to_dict()
            return (http_status(response.code), envelope)
        finally:
            self.admission.release()

    def _request_deadline(self, payload) -> Deadline | None:
        timeout_ms = payload.get("timeout_ms") if isinstance(payload, dict) else None
        if (
            isinstance(timeout_ms, (int, float))
            and not isinstance(timeout_ms, bool)
            and math.isfinite(timeout_ms)
            and timeout_ms > 0
        ):
            return Deadline.after(timeout_ms / 1000, clock=self._clock)
        return None

    def _retry_after(self, reason: str) -> float:
        if reason == "draining":
            return 1.0
        # A queue slot frees within roughly one queue_timeout once load
        # falls; never advertise less than 50ms (retry stampede).
        return max(0.05, self.admission.queue_timeout)

    def _error(
        self,
        endpoint: str,
        start: float,
        code: str,
        message: str,
        retry_after: float | None = None,
    ) -> tuple[int, dict]:
        active = self.service.system.runtime.acquire()
        envelope = ApiResponse(
            ok=False,
            elapsed_ms=(self._perf() - start) * 1000,
            error=message,
            code=code,
            graph_version=active.graph_version,
            preference_version=active.preference_version,
            timestamp=self._clock.time(),
        ).to_dict()
        if retry_after is not None:
            envelope["retry_after_ms"] = round(retry_after * 1000, 3)
        return (http_status(code), envelope)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "endpoints": list(self.POST_ENDPOINTS),
        }

    # ------------------------------------------------------------------
    # HTTP surface
    # ------------------------------------------------------------------
    def routes(self) -> list[str]:
        """The GET/HEAD route table, sorted."""
        return sorted(self._get_routes)

    def start(self) -> "QueryFrontend":
        if self._httpd is not None:
            return self
        frontend = self

        class _Handler(BaseHTTPRequestHandler):
            server_version = "repro-frontend/1.0"
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                frontend._handle_post(self)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                frontend._handle_get(self)

            # Load balancers and scrapers probe with HEAD: same status and
            # headers as the GET, no body bytes on the wire.
            do_HEAD = do_GET  # noqa: N815 (http.server API)

            def log_message(self, *args) -> None:
                pass  # access logs go through the structured logger

        class _Server(ThreadingHTTPServer):
            # socketserver's default listen backlog is 5: a connect burst
            # beyond it gets RST at the TCP layer and the client sees a
            # reset instead of a response. Overload must reach admission
            # control so it sheds with a structured 429/503 envelope —
            # the backlog only needs to bridge the accept loop's latency.
            request_queue_size = 128

        self._httpd = _Server((self._host, self._requested_port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="query-frontend", daemon=True
        )
        self._thread.start()
        self._log.info(
            "frontend_started", url=self.url, routes=self.routes(),
            max_concurrency=self.admission.max_concurrency,
            max_queue=self.admission.max_queue,
        )
        return self

    def stop(self, drain_timeout: float = 5.0) -> bool:
        """Graceful drain, then tear the listener down.

        Returns ``True`` when every in-flight request finished inside
        ``drain_timeout`` (the listener is closed either way).
        """
        drained = self.admission.drain(drain_timeout)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            self._httpd = None
            self._thread = None
        self._log.info("frontend_stopped", drained=drained)
        return drained

    def __enter__(self) -> "QueryFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # ------------------------------------------------------------------
    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        path = _route_path(handler)
        endpoint = path.lstrip("/")
        start = self._perf()
        try:
            length = int(handler.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Read-or-close: a body that cannot be (or will not be) read
            # would be parsed as the next request line, so this
            # connection ends with the refusal.
            handler.close_connection = True
            _, envelope = self._error(
                endpoint or "/", start, "invalid_argument",
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]",
            )
            status = 413 if length > MAX_BODY_BYTES else 400
        else:
            # Consumed before routing: an unknown route must not leave its
            # body behind on a keep-alive connection either.
            raw = handler.rfile.read(length)
            if endpoint not in self.POST_ENDPOINTS:
                status, envelope = self._error(
                    endpoint or "/", start, "invalid_argument",
                    f"no POST route {path!r}; endpoints: {list(self.POST_ENDPOINTS)}",
                )
            else:
                try:
                    payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
                except (ValueError, UnicodeDecodeError) as error:
                    status, envelope = self._error(
                        endpoint, start, "invalid_argument", f"bad JSON body: {error}"
                    )
                else:
                    status, envelope = self.dispatch(endpoint, payload)
        extra_headers = []
        retry_after_ms = envelope.get("retry_after_ms")
        if retry_after_ms is not None:
            # HTTP Retry-After is integral seconds; round up so clients
            # never retry before the advertised window.
            extra_headers.append(
                ("Retry-After", str(max(1, math.ceil(retry_after_ms / 1000))))
            )
        self._send(handler, status, JSON_CONTENT_TYPE, json.dumps(envelope), extra_headers)

    def _handle_get(self, handler: BaseHTTPRequestHandler) -> None:
        path = _route_path(handler)
        route = self._get_routes.get(path)
        status, content_type = 200, JSON_CONTENT_TYPE
        if route is None:
            status = 404
            body = json.dumps({"error": f"no route {path!r}", "routes": self.routes()})
        else:
            try:
                content_type, body = route()
            except Exception as error:  # route bugs must not kill the thread
                self._log.error("route_failed", path=path, error=repr(error))
                status, content_type = 500, JSON_CONTENT_TYPE
                body = json.dumps({"error": f"{type(error).__name__}: {error}"})
        self._send(handler, status, content_type, body)

    def _send(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: "str | bytes",
        extra_headers=(),
    ) -> None:
        """The one responder: count the request, then emit status line,
        headers and body.

        ``Content-Length`` always states the body a GET would carry, also
        on HEAD responses where the body itself is omitted (RFC 9110).
        Headers and body still leave in two writes, as before the
        listeners were merged; ROADMAP item 1(a) makes them one.
        """
        self._count_http(_route_path(handler), status)
        payload = body.encode("utf-8") if isinstance(body, str) else body
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        for name, value in extra_headers:
            handler.send_header(name, value)
        if handler.close_connection:
            handler.send_header("Connection", "close")
        handler.end_headers()
        if handler.command != "HEAD":
            handler.wfile.write(payload)


__all__ = [
    "MAX_BODY_BYTES",
    "AdmissionController",
    "QueryFrontend",
    "HTTP_STATUS_BY_CODE",
    "http_status",
]
