"""repro.obs — dependency-free observability: metrics, the per-request
record, clocks, structured logging, drift measurement.

The paper's online stage answers marketer queries "in milliseconds" while
weekly/daily refreshes republish artifacts underneath it; operating that
regime needs latency histograms, cache hit rates and per-stage pipeline
timings — and, one level up, whether the artifact we just swapped in is
fit to serve.

``metrics``
    :class:`MetricsRegistry` — labeled counters/gauges/fixed-bucket
    histograms with p50/p90/p99 summaries, Prometheus text exposition and
    a JSON snapshot.
``clock``
    :class:`Clock` / :class:`ManualClock` — the single injectable time
    source, so tests freeze time deterministically.
``logging``
    :class:`StructuredLogger` — JSON-lines events stamped with the
    ambient request's id.
``context``
    :class:`RequestRecord` — the one per-request structure: identity,
    outcome, versions, queue wait, cache hit/miss, hop sizes and a nested
    waterfall of :func:`phase` timings, bound via ``contextvars`` by the
    outermost entry point and appended once to the :class:`RequestLog`
    ring behind the ``/journeys`` endpoint.
``profile``
    :class:`ResourceAccountant` gauges for per-generation disk
    footprints.
``drift``
    artifact-to-artifact :class:`DriftReport` (edge/entity churn, top-K
    audience overlap, score spread) computed at every hot-swap; an empty
    graph or constant scores make it ``critical``.
One :class:`Observability` bundle (registry + request log + clock + logger)
is created per :class:`~repro.online.EGLSystem` and shared by the serving
runtime, the TRMP pipeline and the API facade. ``Observability.disabled()``
swaps in no-op primitives and opens no records — the baseline the overhead
benchmark measures against.
"""

from __future__ import annotations

from repro.obs.clock import Clock, ManualClock
from repro.obs.context import (
    RequestLog,
    RequestRecord,
    annotate,
    current_record,
    current_request_id,
    phase,
)
from repro.obs.drift import (
    DriftReport,
    compare_graphs,
    compare_preference_stores,
    topk_overlap,
)
from repro.obs.logging import StructuredLogger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import ResourceAccountant


class Observability:
    """One system's observability bundle: metrics + request log + clock +
    logger.

    Components share the clock, so freezing it (``ManualClock``) freezes
    every timestamp, latency sample, phase duration and log record at once.
    The logger is the family root — components derive scoped loggers via
    ``obs.logger.child("serving")`` which share one ring buffer/stream.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        logger: StructuredLogger | None = None,
        log_stream=None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.clock = clock or Clock()
        self.metrics = metrics or MetricsRegistry(enabled=enabled)
        self.logger = logger or StructuredLogger(
            "system", clock=self.clock, stream=log_stream, enabled=enabled,
        )
        #: The one per-request ring (``/journeys``).
        self.journeys = RequestLog(self.clock, enabled=enabled)

    @classmethod
    def disabled(cls) -> "Observability":
        """No-op bundle: every metric/phase/log call is a cheap do-nothing."""
        return cls(enabled=False)


__all__ = [
    "Clock",
    "ManualClock",
    "RequestRecord",
    "RequestLog",
    "current_record",
    "current_request_id",
    "annotate",
    "phase",
    "ResourceAccountant",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "StructuredLogger",
    "DriftReport",
    "compare_graphs",
    "compare_preference_stores",
    "topk_overlap",
    "Observability",
]
