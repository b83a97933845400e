"""The one HTTP listener and the one online entry point.

The paper's online stage answers "heavy traffic from millions of users";
everything below this module already serves one request correctly — this
module makes *many at once* safe. A :class:`QueryFrontend` drives an
:class:`~repro.online.api.EGLService` from a thread pool (stdlib
``ThreadingHTTPServer``): every POST — also one whose body or route the
listener refuses — goes through :meth:`QueryFrontend.dispatch`, GET/HEAD
requests render the service's telemetry routes (``/metrics``,
``/health``, …, plus ``/frontend``) and open no request record, and every
response leaves through one responder, :meth:`QueryFrontend._send`, which
writes the status line and headers, then the body: two socket writes.

``dispatch`` alone opens and closes the request's
:class:`~repro.obs.context.RequestRecord`, counts the request once in
``requests_total{endpoint,code}`` (``code`` ``ok`` when served) and times
it in ``request_seconds{endpoint}``. The service validates and answers;
the envelopes ``dispatch`` refuses or sheds itself come from the same
:func:`~repro.online.api.build_envelope`. Queries run behind an
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

A failing request is answered with its own envelope and code (a caller
mistake 400 ``invalid_argument``, a backend fault 500 with the fault's
code) and decides nothing for a later request: there is no breaker, so
one caller's bad requests never refuse another's good ones.

Per-request :class:`~repro.resilience.Deadline` budgets span queue time
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
    build_envelope,
    error_code,
)
from repro.resilience import Deadline

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
    "not_ready": 503,
    "deadline_exceeded": 504,
}



def _decode(raw: bytes):
    """A POST body → its JSON value (``{}`` when empty), or the
    :class:`~repro.errors.ConfigError` that refuses it."""
    try:
        return json.loads(raw.decode("utf-8")) if raw.strip() else {}
    except (ValueError, UnicodeDecodeError) as error:
        return ConfigError(f"bad JSON body: {error}")


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


class QueryFrontend:
    """Thread-pooled query surface over one :class:`EGLService`.

    :meth:`dispatch` is the one online entry point — benchmarks and tests
    drive it directly from threads; the HTTP listener is a thin wrapper
    that reads and JSON-decodes bodies, hands every POST to it, maps
    envelopes to statuses/headers and serves the service's telemetry
    routes to GET/HEAD.
    """

    #: POST endpoint → the :class:`EGLService` method that answers it,
    #: looked up per request (so a class-level wrapper sees every call).
    ANSWERS = {
        "expand": "expand",
        "target": "target",
        "target_batch": "target_batch",
        "feedback": "record_feedback",
    }
    POST_ENDPOINTS = tuple(ANSWERS)

    def __init__(
        self,
        service: EGLService,
        max_concurrency: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 0.25,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.admission = AdmissionController(max_concurrency, max_queue, queue_timeout)
        self._clock = service.obs.clock
        self._perf = self._clock.perf
        self._journeys = service.obs.journeys
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
        # Series handles resolved once per label set: registry lookups
        # sort labels and hash keys, too much for the warm request path.
        self._request_counters: dict[tuple[str, str | None], object] = {}
        self._latency: dict[str, object] = {}
        self._http_counters: dict[tuple[str, int], object] = {}
        self._metrics = metrics
        metrics.add_collector(self._collect)
        self._get_routes = dict(service.telemetry_routes())
        self._get_routes["/frontend"] = lambda: (
            JSON_CONTENT_TYPE, json.dumps(self.stats())
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _observe_request(self, endpoint: str, code: str | None, seconds: float) -> None:
        """One POST: ``requests_total{endpoint,code}`` (``ok`` when served)
        and ``request_seconds{endpoint}``."""
        if endpoint not in self.ANSWERS:
            endpoint = "other"  # a port scan must not mint a series per probe
        inc = self._request_counters.get((endpoint, code))
        if inc is None:
            inc = self._request_counters[(endpoint, code)] = self._metrics.counter(
                "requests_total", help="POST requests by endpoint and envelope code",
                endpoint=endpoint, code=code or "ok",
            ).inc
        inc()
        observe = self._latency.get(endpoint)
        if observe is None:
            observe = self._latency[endpoint] = self._metrics.histogram(
                "request_seconds", help="POST request latency, dispatch to envelope",
                endpoint=endpoint,
            ).observe
        observe(seconds)

    def _count_http(self, path: str, status: int) -> None:
        if path not in self._get_routes:
            path = "other"  # a port scan must not mint a series per probe
        counter = self._http_counters.get((path, status))
        if counter is None:
            counter = self._metrics.counter(
                "frontend_http_requests_total",
                help="GET/HEAD requests answered by the listener, by path and status",
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
    # Dispatch (the one online entry point)
    # ------------------------------------------------------------------
    def dispatch(self, endpoint: str, payload) -> tuple[int, dict]:
        """Run one request through admission + service; returns
        ``(http_status, envelope_dict)``.

        Opens the request's :class:`~repro.obs.context.RequestRecord`,
        counts the request once, and closes the record on every outcome —
        served, refused, shed or crashed — so ``/journeys`` shows the
        requests that never reached the service too. ``payload`` is the
        decoded JSON body, or the :class:`~repro.errors.ReproError` the
        listener refused the body with. Every envelope, shed ones included,
        comes from :func:`~repro.online.api.build_envelope`; a shed also
        carries ``retry_after_ms``, so it is explicitly retryable.
        """
        record = self._journeys.open(endpoint)
        start = self._perf()
        try:
            response = self._respond(endpoint, payload, start)
            with phase("to_dict"):
                envelope = response.to_dict()
        except BaseException:
            # Counted and closed as the record's default, ``internal``.
            self._observe_request(endpoint, "internal", self._perf() - start)
            self._journeys.close(record)
            raise
        code = response.code
        self._observe_request(endpoint, code, self._perf() - start)
        self._journeys.close(
            record, response.ok, code, response.graph_version, response.preference_version,
            shed=response.retry_after_ms is not None,
        )
        return (http_status(code), envelope)

    def _respond(self, endpoint: str, payload, start: float) -> ApiResponse:
        if isinstance(payload, ReproError):
            return self._refuse(start, error_code(payload), str(payload))
        method = self.ANSWERS.get(endpoint)
        if method is None:
            return self._refuse(
                start, "invalid_argument",
                f"no POST route {endpoint!r}; endpoints: {list(self.POST_ENDPOINTS)}",
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
            return self._refuse(
                start, reason, f"request shed: {reason}", self._retry_after(reason)
            )
        try:
            if deadline is not None:
                if deadline.expired:
                    # The whole budget went to queueing; shed without
                    # touching the runtime.
                    return self._refuse(
                        start, "deadline_exceeded", "deadline expired while queued",
                        self._retry_after("queue_timeout"),
                    )
                # The backend gets only the remaining budget.
                payload = dict(payload)
                payload["timeout_ms"] = max(deadline.remaining() * 1000, 0.001)
            with phase("api"):
                return getattr(self.service, method)(payload)
        finally:
            self.admission.release()

    def _refuse(
        self, start: float, code: str, message: str, retry_after: float | None = None
    ) -> ApiResponse:
        """An envelope for a request the service never answered, labelled
        with the generation serving now."""
        return build_envelope(
            self._clock, start, self.service.system.runtime.acquire(),
            code=code, error=message,
            retry_after_ms=None if retry_after is None else round(retry_after * 1000, 3),
        )

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

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "admission": self.admission.snapshot(),
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
        endpoint = _route_path(handler).lstrip("/") or "/"
        try:
            length = int(handler.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Read-or-close: a body that cannot be (or will not be) read
            # would be parsed as the next request line, so this
            # connection ends with the refusal.
            handler.close_connection = True
            payload = ConfigError(
                f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]"
            )
        else:
            # Consumed before routing: an unknown route must not leave its
            # body behind on a keep-alive connection either.
            raw = handler.rfile.read(length)
            payload = _decode(raw) if endpoint in self.ANSWERS else None
        status, envelope = self.dispatch(endpoint, payload)
        if length > MAX_BODY_BYTES:
            status = 413
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
            body = json.dumps({
                "error": f"no route {path!r}", "code": "not_found",
                "routes": self.routes(),
            })
        else:
            try:
                content_type, body = route()
            except Exception as error:  # route bugs must not kill the thread
                self._log.error("route_failed", path=path, error=repr(error))
                status, content_type = 500, JSON_CONTENT_TYPE
                body = json.dumps(
                    {"error": f"{type(error).__name__}: {error}", "code": "internal"}
                )
        self._count_http(path, status)
        self._send(handler, status, content_type, body)

    def _send(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: "str | bytes",
        extra_headers=(),
    ) -> None:
        """The one responder: status line, headers and body.

        ``Content-Length`` always states the body a GET would carry, also
        on HEAD responses where the body itself is omitted (RFC 9110).
        Headers and body still leave in two writes, as before the
        listeners were merged; ROADMAP item 1(a) makes them one.
        """
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
