"""Serving API facade: JSON-serialisable request/response types.

A deployment would put the online stage behind an RPC/HTTP layer. This
module is that layer minus the transport: typed requests, dict-serialisable
responses, input validation and error envelopes — so a thin HTTP wrapper
(or a test) can drive :class:`repro.online.EGLSystem` without touching its
Python objects.

Validation happens at this edge: a field of the wrong type (``depth`` /
``k`` / ``max_entities`` must be an ``int``, not a ``bool``; ``min_score``
/ ``timeout_ms`` / each weight a finite real number; ``phrases`` a
non-empty list of strings), an out-of-range knob and an entity id that
names no entity (anything but an ``int`` in ``[0, num_entities)``) are
rejected as ``invalid_argument`` before they reach the runtime or the
feedback recorder. So is a phrase list the reasoner resolves to no entity
(:class:`~repro.errors.VocabularyError`).
Every response also reports the artifact versions that served it, so
clients can correlate results across hot-swaps: a request acquires the
active generation once, is answered from it, and is labelled with it.

This edge is also where per-request observability lives: every endpoint
call runs inside a :class:`~repro.obs.context.RequestRecord` (its own when
the service is driven directly, the front end's otherwise), bumps
``api_requests_total{endpoint,status}`` and records its latency into
``api_request_seconds{endpoint}``. All timing goes through the system's
injectable :class:`~repro.obs.Clock`, so tests can freeze it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from repro.errors import (
    CheckpointError,
    ConfigError,
    CorruptArtifactError,
    DeadlineExceededError,
    DriftGateError,
    NotFittedError,
    ReproError,
    StorageError,
    VocabularyError,
)
from repro.obs import Observability
from repro.online.system import EGLSystem
from repro.resilience import Deadline
from repro.serving.runtime import ActiveArtifacts

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json"
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Exception class → machine-readable envelope code, most specific first
#: (``CorruptArtifactError`` subclasses ``StorageError``; ``ReproError``
#: is the catch-all). Clients branch on ``code``, never on message text.
ERROR_CODES: tuple[tuple[type[ReproError], str], ...] = (
    (ConfigError, "invalid_argument"),
    (VocabularyError, "invalid_argument"),
    (NotFittedError, "not_ready"),
    (DeadlineExceededError, "deadline_exceeded"),
    (CorruptArtifactError, "corrupt_artifact"),
    (CheckpointError, "checkpoint_failed"),
    (DriftGateError, "drift_gated"),
    (StorageError, "storage_error"),
    (ReproError, "internal"),
)


def error_code(error: ReproError) -> str:
    """Map an exception to its stable envelope code."""
    for cls, code in ERROR_CODES:
        if isinstance(error, cls):
            return code
    return "internal"


@dataclass
class ExpandRequest:
    phrases: list[str]
    depth: int = 2
    min_score: float = 0.0
    max_entities: int = 25
    #: Per-request budget; the runtime sheds expired work with
    #: ``deadline_exceeded`` rather than finishing late. ``None`` = no limit.
    timeout_ms: float | None = None


@dataclass
class TargetRequest:
    entity_ids: list[int]
    k: int = 50
    weights: list[float] | None = None
    timeout_ms: float | None = None


@dataclass
class ApiResponse:
    """Uniform envelope: ``ok`` + payload or error message.

    ``graph_version``/``preference_version`` identify the artifacts the
    request was answered from — ``None`` until the matching refresh has
    run.
    ``timestamp`` is the service clock's wall time when the envelope was
    sealed (deterministic under a frozen test clock).
    """

    ok: bool
    elapsed_ms: float
    payload: dict = field(default_factory=dict)
    error: str | None = None
    #: Stable machine-readable error discriminator (see :data:`ERROR_CODES`);
    #: ``None`` on success.
    code: str | None = None
    graph_version: int | None = None
    preference_version: int | None = None
    timestamp: float | None = None

    def to_dict(self) -> dict:
        """The wire envelope. ``payload`` rides by reference: it was built
        for this response and nothing else holds it."""
        return {
            "ok": self.ok,
            "elapsed_ms": self.elapsed_ms,
            "payload": self.payload,
            "error": self.error,
            "code": self.code,
            "graph_version": self.graph_version,
            "preference_version": self.preference_version,
            "timestamp": self.timestamp,
        }


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _validate_positive_int(value, name: str) -> None:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def _validate_timeout(timeout_ms) -> None:
    if timeout_ms is not None and not (_is_finite(timeout_ms) and timeout_ms > 0):
        raise ConfigError(
            f"timeout_ms must be a positive finite number, got {timeout_ms!r}"
        )


def _validate_expand(request: ExpandRequest) -> None:
    phrases = request.phrases
    if (
        not isinstance(phrases, list)
        or not phrases
        or not all(isinstance(phrase, str) for phrase in phrases)
    ):
        raise ConfigError(f"phrases must be a non-empty list of strings, got {phrases!r}")
    _validate_positive_int(request.depth, "depth")
    _validate_positive_int(request.max_entities, "max_entities")
    if not _is_finite(request.min_score):
        raise ConfigError(f"min_score must be a finite number, got {request.min_score!r}")
    _validate_timeout(request.timeout_ms)


def _validate_entity_ids(ids, num_entities: int, name: str) -> None:
    """Each id must be an integer, not a bool, in ``[0, num_entities)``:
    a float, string or negative id would otherwise be coerced or wrap
    around to some other entity, and a large one index past the arrays."""
    if not isinstance(ids, (list, tuple)):
        raise ConfigError(f"{name} must be a list of entity ids")
    for entity_id in ids:
        if not _is_int(entity_id) or not 0 <= entity_id < num_entities:
            raise ConfigError(
                f"{name} must hold entity ids in [0, {num_entities}), "
                f"got {entity_id!r}"
            )


def _validate_target(request: TargetRequest, num_entities: int) -> None:
    _validate_entity_ids(request.entity_ids, num_entities, "entity_ids")
    _validate_positive_int(request.k, "k")
    weights = request.weights
    if weights is not None:
        if not isinstance(weights, (list, tuple)) or len(weights) != len(request.entity_ids):
            raise ConfigError("weights must be a list aligned with entity_ids")
        if not all(_is_finite(w) for w in weights):
            raise ConfigError(f"weights must be finite numbers, got {weights!r}")
    _validate_timeout(request.timeout_ms)


class EGLService:
    """Request-level wrapper over a prepared :class:`EGLSystem`."""

    def __init__(
        self,
        system: EGLSystem,
        obs: Observability | None = None,
    ) -> None:
        self.system = system
        self.obs = obs or getattr(system, "obs", None) or Observability()
        self._perf = self.obs.clock.perf
        self._requests = self.obs.journeys
        # Per-endpoint metric handles, resolved once: registry lookups sort
        # labels and hash keys, which is too much for the warm request path.
        self._endpoint_obs: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def _endpoint_bundle(self, endpoint: str) -> tuple:
        metrics = self.obs.metrics
        histogram = metrics.histogram(
            "api_request_seconds", help="End-to-end API request latency",
            endpoint=endpoint,
        )
        ok_counter = metrics.counter(
            "api_requests_total", help="API requests by endpoint and outcome",
            endpoint=endpoint, status="ok",
        )
        error_counter = metrics.counter(
            "api_requests_total", help="API requests by endpoint and outcome",
            endpoint=endpoint, status="error",
        )
        if getattr(metrics, "enabled", False):
            # The ok series is derived at read-out, not incremented per
            # request: every request observes the latency histogram and
            # errors increment their counter (observe *before* inc, so
            # the difference is monotone at every instant), hence
            # ok = observations - errors. One fewer hot-path mutation.
            metrics.add_collector(
                lambda h=histogram, e=error_counter, c=ok_counter: c.set_total(
                    h.count - e.value
                )
            )
        bundle = (error_counter.inc, histogram.observe)
        self._endpoint_obs[endpoint] = bundle
        return bundle

    def _run(self, endpoint: str, fn) -> ApiResponse:
        """Answer one request: ``fn(active)`` computes its payload from the
        generation acquired here, which also labels the envelope and the
        request record."""
        bundle = self._endpoint_obs.get(endpoint)
        if bundle is None:
            bundle = self._endpoint_bundle(endpoint)
        inc_error, observe_latency = bundle
        # ``None`` when a front end already opened (and will close) this
        # request's record, or observability is disabled. A record's own
        # duration is its opener's layer: opened here it *is* the api call,
        # opened by the front end the api call is one phase inside it.
        record = self._requests.open(endpoint)
        start = self._perf()
        active = self.system.runtime.acquire()
        try:
            payload = fn(active)
        except ReproError as error:
            response = self._envelope(
                start, active, ok=False, error=str(error), code=error_code(error)
            )
        except BaseException:
            # Non-ReproError escape: close the record with error status
            # (which unbinds it), then let the caller see the crash.
            self._requests.close(record)
            raise
        else:
            response = self._envelope(start, active, ok=True, payload=payload)
        observe_latency(response.elapsed_ms / 1000)
        if not response.ok:
            inc_error()
        self._requests.close(
            record, response.ok, response.code,
            response.graph_version, response.preference_version,
        )
        return response

    def _envelope(
        self,
        start: float,
        active: ActiveArtifacts,
        ok: bool,
        payload: dict | None = None,
        error: str | None = None,
        code: str | None = None,
    ) -> ApiResponse:
        clock = self.obs.clock
        return ApiResponse(
            ok=ok,
            elapsed_ms=(clock.perf() - start) * 1000,
            payload=payload or {},
            error=error,
            code=code,
            graph_version=active.graph_version,
            preference_version=active.preference_version,
            timestamp=clock.time(),
        )

    def _deadline(self, timeout_ms: float | None) -> Deadline | None:
        if timeout_ms is None:
            return None
        return Deadline.after(timeout_ms / 1000, clock=self.obs.clock)

    # ------------------------------------------------------------------
    def expand(self, request: ExpandRequest) -> ApiResponse:
        """Phrase → k-hop subgraph, as plain dicts (Fig. 6 steps 1-2)."""

        def run(active: ActiveArtifacts) -> dict:
            _validate_expand(request)
            view = self.system.runtime.expand(
                active,
                request.phrases,
                depth=request.depth,
                min_score=request.min_score,
                deadline=self._deadline(request.timeout_ms),
            )
            return {
                "seeds": view.seeds,
                "entities": [
                    {
                        "entity_id": e.entity_id,
                        "name": e.name,
                        "type": e.type_name,
                        "hop": e.hop,
                        "score": round(e.score, 6),
                        "path": e.path,
                    }
                    for e in view.top(request.max_entities)
                ],
            }

        return self._run("expand", run)

    def target(self, request: TargetRequest) -> ApiResponse:
        """Chosen entities → exported audience (Fig. 6 step 3)."""

        def run(active: ActiveArtifacts) -> dict:
            _validate_target(request, self.system.world.num_entities)
            result = self.system.runtime.target(
                active,
                request.entity_ids,
                k=request.k,
                weights=request.weights,
                deadline=self._deadline(request.timeout_ms),
            )
            return {
                "entity_ids": result.entity_ids,
                "users": [
                    {"user_id": u.user_id, "score": round(u.score, 6)}
                    for u in result.users
                ],
            }

        return self._run("target", run)

    def target_batch(self, requests: list[TargetRequest]) -> ApiResponse:
        """Many entity sets → one vectorized scoring pass (bulk export)."""

        def run(active: ActiveArtifacts) -> dict:
            for request in requests:
                _validate_target(request, self.system.world.num_entities)
            if not requests:
                raise ConfigError("need at least one target request")
            ks = {request.k for request in requests}
            if len(ks) != 1:
                raise ConfigError("batched target requests must share one k")
            # The batch runs as one pass, so the strictest request budget
            # bounds the whole batch.
            timeouts = [r.timeout_ms for r in requests if r.timeout_ms is not None]
            results = self.system.runtime.target_batch(
                active,
                [request.entity_ids for request in requests],
                k=ks.pop(),
                weights=[request.weights for request in requests],
                deadline=self._deadline(min(timeouts) if timeouts else None),
            )
            return {
                "results": [
                    {
                        "entity_ids": result.entity_ids,
                        "users": [
                            {"user_id": u.user_id, "score": round(u.score, 6)}
                            for u in result.users
                        ],
                    }
                    for result in results
                ],
            }

        return self._run("target_batch", run)

    def record_feedback(self, seed_entity_id: int, chosen_entity_ids: list[int]) -> ApiResponse:
        """Marketer kept these entities (§II-B feedback loop)."""

        def run(active: ActiveArtifacts) -> dict:
            num_entities = self.system.world.num_entities
            _validate_entity_ids([seed_entity_id], num_entities, "seed_entity_id")
            _validate_entity_ids(chosen_entity_ids, num_entities, "chosen_entity_ids")
            self.system.record_choice(seed_entity_id, chosen_entity_ids)
            return {"recorded": len(self.system.feedback)}

        return self._run("feedback", run)

    def health(self) -> ApiResponse:
        """Liveness + loaded artefacts + a full metrics snapshot."""

        def run(active: ActiveArtifacts) -> dict:
            weeks = len(self.system.pipeline.weekly_runs)
            runtime_health = self.system.runtime.health()
            return {
                "weekly_runs": weeks,
                "preferences_ready": runtime_health["preferences_ready"],
                "ensemble_ready": self.system.pipeline.ensemble is not None,
                "quarantined": list(self.system.registry.quarantined),
                "runtime": runtime_health,
                "artifacts": {
                    kind: [r.to_dict() for r in self.system.registry.records(kind)]
                    for kind in ("graph", "preferences")
                },
                "metrics": self.obs.metrics.snapshot(),
            }

        return self._run("health", run)

    def metrics_text(self) -> str:
        """The ``/metrics``-equivalent Prometheus text exposition."""
        return self.obs.metrics.render_prometheus()

    # ------------------------------------------------------------------
    # Quality-monitoring payloads (JSON bodies for the telemetry endpoint)
    # ------------------------------------------------------------------
    def drift_payload(self) -> dict:
        """Persisted drift reports per artifact kind + the live summary."""
        registry = self.system.registry
        return {
            "summary": self.system.runtime.drift_summary(),
            "reports": {
                kind: [r.to_dict() for r in registry.drift_reports(kind)]
                for kind in ("graph", "preferences")
            },
        }

    def profile_payload(self) -> dict:
        """Per-phase totals over the request ring + per-generation
        resource usage + cache counters."""
        payload: dict = {"phases": self.obs.journeys.phase_totals()}
        resources = getattr(self.system, "resources", None)
        if resources is not None:
            payload["resources"] = resources.usage()
        payload["cache"] = self.system.runtime.cache_stats()
        return payload

    def telemetry_routes(self) -> dict:
        """The GET route table :class:`~repro.serving.frontend.QueryFrontend`
        serves: path → zero-arg callable returning ``(content_type, body)``
        (body ``str`` or ``bytes``).

        Every route renders from already-maintained state — scrapes share
        the process with request serving, so nothing here recomputes
        artifacts or walks the graph.
        """
        return {
            "/metrics": lambda: (PROMETHEUS_CONTENT_TYPE, self.metrics_text()),
            "/health": lambda: (
                JSON_CONTENT_TYPE, json.dumps(self.health().to_dict()),
            ),
            "/drift": lambda: (JSON_CONTENT_TYPE, json.dumps(self.drift_payload())),
            "/journeys": lambda: (
                NDJSON_CONTENT_TYPE, self.obs.journeys.to_ndjson(),
            ),
            "/profile": lambda: (
                JSON_CONTENT_TYPE, json.dumps(self.profile_payload()),
            ),
        }
