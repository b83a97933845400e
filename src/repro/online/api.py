"""Serving API: request validation and answers as JSON-ready envelopes.

:class:`EGLService` is the online stage minus transport and admission.
Each endpoint method (:meth:`~EGLService.expand`, ``target``,
``target_batch``, ``record_feedback``) takes the decoded JSON body,
checks it with that endpoint's one validation function, acquires the
active generation once, answers from it and returns an
:class:`ApiResponse` labelled with it — also when a swap lands while the
answer is computed. A :class:`~repro.errors.ReproError` is answered with
its own envelope and ``code`` (:data:`ERROR_CODES`).

Validation happens at this edge: a key the endpoint does not define, a
field of the wrong type (``depth`` / ``k`` / ``max_entities`` must be an
``int``, not a ``bool``; ``min_score`` / ``timeout_ms`` / each weight a
finite real number; ``phrases`` a non-empty list of strings), an
out-of-range knob and an entity id that names no entity (anything but an
``int`` in ``[0, num_entities)``) are rejected as ``invalid_argument``
before they reach the runtime or the feedback recorder. So is a phrase
list the reasoner resolves to no entity
(:class:`~repro.errors.VocabularyError`).

The service opens no request record and owns no metric:
:meth:`~repro.serving.frontend.QueryFrontend.dispatch`, the one online
entry point, records and counts every request, and builds the envelopes
it refuses or sheds before the service through the same
:func:`build_envelope`. All timing goes through the system's injectable
:class:`~repro.obs.Clock`, so tests can freeze it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
from repro.obs import Clock
from repro.resilience import Deadline
from repro.serving.runtime import ActiveArtifacts

if TYPE_CHECKING:
    from repro.online.system import EGLSystem

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
    #: Set on sheds only: when a retry may succeed.
    retry_after_ms: float | None = None

    def to_dict(self) -> dict:
        """The wire envelope. ``payload`` rides by reference: it was built
        for this response and nothing else holds it. ``retry_after_ms``
        appears on sheds only."""
        envelope = {
            "ok": self.ok,
            "elapsed_ms": self.elapsed_ms,
            "payload": self.payload,
            "error": self.error,
            "code": self.code,
            "graph_version": self.graph_version,
            "preference_version": self.preference_version,
            "timestamp": self.timestamp,
        }
        if self.retry_after_ms is not None:
            envelope["retry_after_ms"] = self.retry_after_ms
        return envelope


def build_envelope(
    clock: Clock,
    start: float,
    active: ActiveArtifacts,
    payload: dict | None = None,
    code: str | None = None,
    error: str | None = None,
    retry_after_ms: float | None = None,
) -> ApiResponse:
    """The one envelope builder: an answer (``code`` ``None``) or a
    refusal, labelled with ``active``'s versions and timed from ``start``
    (a ``clock.perf()`` reading)."""
    return ApiResponse(
        ok=code is None,
        elapsed_ms=(clock.perf() - start) * 1000,
        payload={} if payload is None else payload,
        error=error,
        code=code,
        graph_version=active.graph_version,
        preference_version=active.preference_version,
        timestamp=clock.time(),
        retry_after_ms=retry_after_ms,
    )


# ----------------------------------------------------------------------
# Validation: one function per endpoint, from the decoded JSON body
# ----------------------------------------------------------------------
EXPAND_FIELDS = frozenset({"phrases", "depth", "min_score", "max_entities", "timeout_ms"})
TARGET_FIELDS = frozenset({"entity_ids", "k", "weights", "timeout_ms"})
TARGET_BATCH_FIELDS = frozenset({"requests", "timeout_ms"})
FEEDBACK_FIELDS = frozenset({"seed_entity_id", "chosen_entity_ids"})


def _fields(payload, allowed: frozenset, required: tuple[str, ...]) -> dict:
    """``payload`` as a JSON object holding ``required`` and nothing
    outside ``allowed``."""
    if not isinstance(payload, dict):
        raise ConfigError("request body must be a JSON object")
    unknown = payload.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = [name for name in required if name not in payload]
    if missing:
        raise ConfigError(f"missing fields {missing}")
    return payload


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _positive_int(body: dict, name: str, default: int) -> int:
    value = body.get(name, default)
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def _timeout(body: dict) -> float | None:
    timeout_ms = body.get("timeout_ms")
    if timeout_ms is not None and not (_is_finite(timeout_ms) and timeout_ms > 0):
        raise ConfigError(
            f"timeout_ms must be a positive finite number, got {timeout_ms!r}"
        )
    return timeout_ms


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


def validate_expand(payload) -> tuple[list[str], int, float, int, float | None]:
    """``/expand`` body → ``(phrases, depth, min_score, max_entities,
    timeout_ms)``."""
    body = _fields(payload, EXPAND_FIELDS, ("phrases",))
    phrases = body["phrases"]
    if (
        not isinstance(phrases, list)
        or not phrases
        or not all(isinstance(phrase, str) for phrase in phrases)
    ):
        raise ConfigError(f"phrases must be a non-empty list of strings, got {phrases!r}")
    depth = _positive_int(body, "depth", 2)
    max_entities = _positive_int(body, "max_entities", 25)
    min_score = body.get("min_score", 0.0)
    if not _is_finite(min_score):
        raise ConfigError(f"min_score must be a finite number, got {min_score!r}")
    return phrases, depth, min_score, max_entities, _timeout(body)


def validate_target(
    payload, num_entities: int
) -> tuple[list[int], int, list[float] | None, float | None]:
    """``/target`` body (or one ``/target_batch`` item) → ``(entity_ids,
    k, weights, timeout_ms)``."""
    body = _fields(payload, TARGET_FIELDS, ("entity_ids",))
    entity_ids = body["entity_ids"]
    _validate_entity_ids(entity_ids, num_entities, "entity_ids")
    k = _positive_int(body, "k", 50)
    weights = body.get("weights")
    if weights is not None:
        if not isinstance(weights, (list, tuple)) or len(weights) != len(entity_ids):
            raise ConfigError("weights must be a list aligned with entity_ids")
        if not all(_is_finite(w) for w in weights):
            raise ConfigError(f"weights must be finite numbers, got {weights!r}")
    return entity_ids, k, weights, _timeout(body)


def validate_target_batch(
    payload, num_entities: int
) -> tuple[list[list[int]], int, list[list[float] | None], float | None]:
    """``/target_batch`` body → ``(entity_sets, k, weights, timeout_ms)``.

    The batch runs as one pass, so the strictest budget — the top-level
    ``timeout_ms`` or any item's — bounds the whole batch.
    """
    body = _fields(payload, TARGET_BATCH_FIELDS, ("requests",))
    items = body["requests"]
    if not isinstance(items, list):
        raise ConfigError("requests must be a list of target requests")
    targets = [validate_target(item, num_entities) for item in items]
    if not targets:
        raise ConfigError("need at least one target request")
    ks = {k for _, k, _, _ in targets}
    if len(ks) != 1:
        raise ConfigError("batched target requests must share one k")
    timeouts = [t for t in [_timeout(body)] + [t for *_, t in targets] if t is not None]
    return (
        [ids for ids, _, _, _ in targets],
        ks.pop(),
        [weights for _, _, weights, _ in targets],
        min(timeouts) if timeouts else None,
    )


def validate_feedback(payload, num_entities: int) -> tuple[int, list[int]]:
    """``/feedback`` body → ``(seed_entity_id, chosen_entity_ids)``."""
    body = _fields(payload, FEEDBACK_FIELDS, ("seed_entity_id", "chosen_entity_ids"))
    seed, chosen = body["seed_entity_id"], body["chosen_entity_ids"]
    _validate_entity_ids([seed], num_entities, "seed_entity_id")
    _validate_entity_ids(chosen, num_entities, "chosen_entity_ids")
    return seed, chosen


def _audience(result) -> dict:
    return {
        "entity_ids": result.entity_ids,
        "users": [
            {"user_id": u.user_id, "score": round(u.score, 6)} for u in result.users
        ],
    }


class EGLService:
    """Validation plus answer over a prepared :class:`EGLSystem`."""

    def __init__(self, system: EGLSystem) -> None:
        self.system = system
        self.obs = system.obs
        self._clock = system.obs.clock

    # ------------------------------------------------------------------
    def _answer(self, answer, payload) -> ApiResponse:
        """``answer(active, payload)`` computes the payload from the
        generation acquired here, which also labels the envelope."""
        start = self._clock.perf()
        active = self.system.runtime.acquire()
        try:
            body = answer(active, payload)
        except ReproError as error:
            return build_envelope(
                self._clock, start, active, code=error_code(error), error=str(error)
            )
        return build_envelope(self._clock, start, active, body)

    def _deadline(self, timeout_ms: float | None) -> Deadline | None:
        if timeout_ms is None:
            return None
        return Deadline.after(timeout_ms / 1000, clock=self._clock)

    # ------------------------------------------------------------------
    def expand(self, payload: dict) -> ApiResponse:
        """Phrase → k-hop subgraph, as plain dicts (Fig. 6 steps 1-2)."""
        return self._answer(self._expand, payload)

    def _expand(self, active: ActiveArtifacts, payload) -> dict:
        phrases, depth, min_score, max_entities, timeout_ms = validate_expand(payload)
        view = self.system.runtime.expand(
            active,
            phrases,
            depth=depth,
            min_score=min_score,
            deadline=self._deadline(timeout_ms),
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
                for e in view.top(max_entities)
            ],
        }

    def target(self, payload: dict) -> ApiResponse:
        """Chosen entities → exported audience (Fig. 6 step 3)."""
        return self._answer(self._target, payload)

    def _target(self, active: ActiveArtifacts, payload) -> dict:
        entity_ids, k, weights, timeout_ms = validate_target(
            payload, self.system.world.num_entities
        )
        result = self.system.runtime.target(
            active, entity_ids, k=k, weights=weights,
            deadline=self._deadline(timeout_ms),
        )
        return _audience(result)

    def target_batch(self, payload: dict) -> ApiResponse:
        """Many entity sets → one vectorized scoring pass (bulk export)."""
        return self._answer(self._target_batch, payload)

    def _target_batch(self, active: ActiveArtifacts, payload) -> dict:
        entity_sets, k, weights, timeout_ms = validate_target_batch(
            payload, self.system.world.num_entities
        )
        results = self.system.runtime.target_batch(
            active, entity_sets, k=k, weights=weights,
            deadline=self._deadline(timeout_ms),
        )
        return {"results": [_audience(result) for result in results]}

    def record_feedback(self, payload: dict) -> ApiResponse:
        """Marketer kept these entities (§II-B feedback loop)."""
        return self._answer(self._record_feedback, payload)

    def _record_feedback(self, active: ActiveArtifacts, payload) -> dict:
        seed, chosen = validate_feedback(payload, self.system.world.num_entities)
        self.system.record_choice(seed, chosen)
        return {"recorded": len(self.system.feedback)}

    def health(self) -> ApiResponse:
        """Liveness + loaded artefacts + a full metrics snapshot."""
        start = self._clock.perf()
        active = self.system.runtime.acquire()
        runtime_health = self.system.runtime.health()
        return build_envelope(self._clock, start, active, {
            "weekly_runs": len(self.system.pipeline.weekly_runs),
            "preferences_ready": runtime_health["preferences_ready"],
            "ensemble_ready": self.system.pipeline.ensemble is not None,
            "quarantined": list(self.system.registry.quarantined),
            "runtime": runtime_health,
            "artifacts": {
                kind: [r.to_dict() for r in self.system.registry.records(kind)]
                for kind in ("graph", "preferences")
            },
            "metrics": self.obs.metrics.snapshot(),
        })

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
