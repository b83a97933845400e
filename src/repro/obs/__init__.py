"""repro.obs — dependency-free observability: metrics, tracing, clocks,
structured logging, drift detection, SLOs/alerts.

The paper's online stage answers marketer queries "in milliseconds" while
weekly/daily refreshes republish artifacts underneath it; operating that
regime needs latency histograms, cache hit rates and per-stage pipeline
timings — and, one level up, signals about *quality*: did the artifact we
just swapped in drift, are we inside our SLOs, should anyone be paged?

``metrics``
    :class:`MetricsRegistry` — labeled counters/gauges/fixed-bucket
    histograms with p50/p90/p99 summaries, Prometheus text exposition and
    a JSON snapshot.
``trace``
    :class:`Tracer` — nested spans (trace id, parent span, wall time,
    tags) in a bounded ring buffer, exportable as JSONL.
``clock``
    :class:`Clock` / :class:`ManualClock` — the single injectable time
    source, so tests freeze time deterministically.
``logging``
    :class:`StructuredLogger` — JSON-lines events with trace/span-id
    correlation injected from the active tracer span (falling back to
    the ambient request's correlation id outside any span).
``context``
    :class:`RequestContext` — ambient per-request identity (correlation
    id, deadline, tenant) propagated via ``contextvars`` from the API
    edge down through runtime, cache, kernels and preference reads, plus
    the :class:`JourneyLog` ring behind the ``/journeys`` endpoint.
``profile``
    :class:`PhaseProfiler` — deterministic phase timers over the hot
    paths (per-hop frontier sweeps, preference matmul blocks) with
    collapsed-stack export, and :class:`ResourceAccountant` gauges for
    per-generation disk/mmap/cache footprints.
``drift``
    :class:`DriftMonitor` — artifact-to-artifact :class:`DriftReport`
    (graph churn, PSI/KL score drift, top-K audience overlap) computed at
    every hot-swap and classified against :class:`DriftConfig` thresholds.
``slo``
    :class:`SLOTracker` rolling-window objectives + error-budget burn
    rate, and the :class:`AlertManager` rule engine with firing/resolved
    state.
One :class:`Observability` bundle (registry + tracer + clock + logger) is
created per :class:`~repro.online.EGLSystem` and shared by the serving
runtime, the TRMP pipeline and the API facade. ``Observability.disabled()``
swaps in no-op primitives — the baseline the overhead benchmark measures
against.
"""

from __future__ import annotations

from repro.obs.clock import Clock, ManualClock
from repro.obs.context import (
    JourneyLog,
    RequestContext,
    annotate,
    current_context,
    current_correlation_id,
)
from repro.obs.drift import (
    DriftConfig,
    DriftMonitor,
    DriftReport,
    compare_graphs,
    compare_preference_stores,
    distribution_shift,
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
from repro.obs.profile import (
    NOOP_PROFILER,
    PhaseProfiler,
    ResourceAccountant,
    current_profiler,
    mmap_open_counts,
    record_mmap_open,
)
from repro.obs.slo import (
    AlertManager,
    AlertRule,
    SLObjective,
    SLOTracker,
    default_alert_rules,
    default_objectives,
)
from repro.obs.trace import Span, Tracer


class Observability:
    """One system's observability bundle: metrics + tracer + clock + logger.

    Components share the clock, so freezing it (``ManualClock``) freezes
    every timestamp, latency sample, span duration and log record at once.
    The logger is the family root — components derive scoped loggers via
    ``obs.logger.child("serving")`` which share one ring buffer/stream.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        clock: Clock | None = None,
        logger: StructuredLogger | None = None,
        log_stream=None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.clock = clock or Clock()
        self.metrics = metrics or MetricsRegistry(enabled=enabled)
        self.tracer = tracer or Tracer(clock=self.clock, enabled=enabled)
        self.logger = logger or StructuredLogger(
            "system", clock=self.clock, tracer=self.tracer,
            stream=log_stream, enabled=enabled,
        )
        self.profiler = (
            PhaseProfiler(clock=self.clock) if enabled else NOOP_PROFILER
        )
        self.journeys = JourneyLog()

    @classmethod
    def disabled(cls) -> "Observability":
        """No-op bundle: every metric/span/log call is a cheap do-nothing."""
        return cls(enabled=False)


__all__ = [
    "Clock",
    "ManualClock",
    "RequestContext",
    "JourneyLog",
    "current_context",
    "current_correlation_id",
    "annotate",
    "PhaseProfiler",
    "NOOP_PROFILER",
    "current_profiler",
    "ResourceAccountant",
    "record_mmap_open",
    "mmap_open_counts",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "StructuredLogger",
    "DriftConfig",
    "DriftMonitor",
    "DriftReport",
    "compare_graphs",
    "compare_preference_stores",
    "distribution_shift",
    "topk_overlap",
    "SLObjective",
    "SLOTracker",
    "AlertManager",
    "AlertRule",
    "default_objectives",
    "default_alert_rules",
    "Observability",
]
