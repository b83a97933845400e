"""SLOs, error budgets, and a declarative alert-rule engine.

PR 2 made the serving stack *instrumented*; this module makes the
telemetry *actionable*. Three pieces:

* :class:`SLObjective` — a declarative target: availability over a rolling
  window, or a latency percentile ceiling fed from the existing
  ``api_request_seconds`` histograms;
* :class:`SLOTracker` — samples the cumulative counters at evaluation
  time into a bounded ring and differences them over the window, yielding
  windowed availability, error-budget burn rate (observed error rate ÷
  budgeted error rate — burn rate 1.0 spends the budget exactly at the
  window's end) and merged latency percentiles;
* :class:`AlertRule` / :class:`AlertManager` — threshold and burn-rate
  rules over a flat signal dict (SLO signals + drift signals), with
  firing/resolved state transitions recorded as alert events. The serving
  runtime consults drift severity directly for swap gating; the alert
  manager is the surface operators watch.

Everything reads the shared :class:`~repro.obs.MetricsRegistry` and the
injectable clock, so a frozen :class:`~repro.obs.ManualClock` makes window
arithmetic exact in tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from repro.errors import ConfigError
from repro.obs.clock import Clock
from repro.obs.metrics import Histogram, MetricsRegistry

_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    "==": lambda value, threshold: value == threshold,
}


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``kind="availability"``: ``target`` is the good-request fraction
    (e.g. ``0.995``) over ``window_seconds``, measured from the
    ``counter`` family's ``status`` label.

    ``kind="latency"``: ``target`` is the ceiling in seconds for the
    ``percentile`` quantile of the ``histogram`` family (merged across its
    labeled series). Latency percentiles come from cumulative fixed-bucket
    histograms, not a windowed sketch — documented, deliberate: the
    histogram is the artifact we already pay for on the hot path.
    """

    name: str
    kind: str  # "availability" | "latency"
    target: float
    window_seconds: float = 3600.0
    percentile: float = 0.99
    counter: str = "api_requests_total"
    histogram: str = "api_request_seconds"

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ConfigError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "availability" and not 0.0 < self.target < 1.0:
            raise ConfigError("availability target must be in (0, 1)")
        if self.window_seconds <= 0:
            raise ConfigError("window_seconds must be positive")


def default_objectives() -> list[SLObjective]:
    """99.5% availability and a 250 ms p99, both over a one-hour window."""
    return [
        SLObjective(name="api-availability", kind="availability", target=0.995),
        SLObjective(name="api-latency-p99", kind="latency", target=0.25, percentile=0.99),
    ]


class SLOTracker:
    """Evaluates objectives against the live registry on demand.

    Each :meth:`evaluate` call appends one ``(time, ok_total, error_total)``
    sample and differences against the newest sample at least
    ``window_seconds`` old (or the oldest retained one), so availability
    and burn rate describe the rolling window rather than process lifetime.
    """

    def __init__(
        self,
        objectives: list[SLObjective] | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        max_samples: int = 4096,
    ) -> None:
        self.objectives = list(objectives) if objectives is not None else default_objectives()
        self._metrics = metrics or MetricsRegistry(enabled=False)
        self._clock = clock or Clock()
        self._max_samples = max_samples
        # One sample ring per counter family, so several availability
        # objectives over different counters window independently.
        self._samples: dict[str, deque[tuple[float, float, float]]] = {}

    # ------------------------------------------------------------------
    def _status_totals(self, counter: str) -> tuple[float, float]:
        """(ok_total, error_total) summed across the family's series."""
        ok = err = 0.0
        for labels, series in self._metrics.series(counter):
            if labels.get("status") == "error":
                err += series.value
            else:
                ok += series.value
        return ok, err

    def _merged_percentile(self, histogram: str, q: float) -> float | None:
        series = [s for _, s in self._metrics.series(histogram)]
        if not series:
            return None
        merged = Histogram.merge(series)
        return None if merged is None else merged.percentile(q)

    def _window_baseline(
        self, counter: str, now: float, window: float
    ) -> tuple[float, float, float]:
        samples = self._samples.get(counter, ())
        baseline = None
        for sample in samples:
            if sample[0] <= now - window:
                baseline = sample  # newest sample at/older than the window edge
            else:
                break
        if baseline is None:
            baseline = samples[0] if samples else (now, 0.0, 0.0)
        return baseline

    # ------------------------------------------------------------------
    def evaluate(self) -> dict:
        """Evaluate every objective now; returns objectives + flat signals."""
        now = self._clock.time()
        results: list[dict] = []
        signals: dict[str, float] = {}
        sampled: set[str] = set()

        for objective in self.objectives:
            if objective.kind == "availability":
                ok, err = self._status_totals(objective.counter)
                if objective.counter not in sampled:
                    ring = self._samples.setdefault(
                        objective.counter, deque(maxlen=self._max_samples)
                    )
                    ring.append((now, ok, err))
                    sampled.add(objective.counter)
                _, base_ok, base_err = self._window_baseline(
                    objective.counter, now, objective.window_seconds
                )
                d_ok = max(0.0, ok - base_ok)
                d_err = max(0.0, err - base_err)
                total = d_ok + d_err
                availability = (d_ok / total) if total else None
                budget = 1.0 - objective.target
                burn_rate = (
                    (d_err / total) / budget if total and budget > 0 else None
                )
                met = availability is None or availability >= objective.target
                result = {
                    "name": objective.name,
                    "kind": objective.kind,
                    "target": objective.target,
                    "window_seconds": objective.window_seconds,
                    "window_requests": total,
                    "availability": availability,
                    "error_budget_burn_rate": burn_rate,
                    "met": met,
                }
                if availability is not None:
                    signals["availability"] = availability
                if burn_rate is not None:
                    signals["error_budget_burn_rate"] = burn_rate
                signals["window_requests"] = total
            else:
                observed = self._merged_percentile(
                    objective.histogram, objective.percentile
                )
                met = observed is None or observed <= objective.target
                result = {
                    "name": objective.name,
                    "kind": objective.kind,
                    "target": objective.target,
                    "percentile": objective.percentile,
                    "observed_seconds": observed,
                    "met": met,
                }
                if observed is not None:
                    signals[f"latency_p{int(objective.percentile * 100)}"] = observed
            results.append(result)

        return {"evaluated_at": now, "objectives": results, "signals": signals}


# ----------------------------------------------------------------------
# Alert rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: fire when ``signal <op> threshold`` holds.

    ``for_cycles`` is the analogue of an alerting rule's ``for:`` clause —
    the breach must hold for that many *consecutive* evaluations before
    the alert transitions to firing, suppressing one-sample blips.
    """

    name: str
    signal: str
    op: str
    threshold: float
    severity: str = "warning"
    description: str = ""
    for_cycles: int = 1

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(f"unknown alert comparator {self.op!r}")
        if self.severity not in ("warning", "critical"):
            raise ConfigError(f"unknown alert severity {self.severity!r}")
        if self.for_cycles < 1:
            raise ConfigError("for_cycles must be >= 1")


def default_alert_rules() -> list[AlertRule]:
    """Burn-rate, latency and drift rules matching the default objectives.

    Burn-rate bars follow the multiwindow convention (fast burn ≈ 14.4
    exhausts a 30-day budget in ~2 days; slow burn ≈ 6); drift bars mirror
    :class:`~repro.obs.drift.DriftConfig` so the alert surface and the
    swap gate agree on what "critical" means.
    """
    return [
        AlertRule(
            name="error-budget-fast-burn", signal="error_budget_burn_rate",
            op=">=", threshold=14.4, severity="critical",
            description="error budget burning >=14.4x over the window",
        ),
        AlertRule(
            name="error-budget-slow-burn", signal="error_budget_burn_rate",
            op=">=", threshold=6.0, severity="warning",
            description="error budget burning >=6x over the window",
        ),
        AlertRule(
            name="latency-p99-breach", signal="latency_p99",
            op=">", threshold=0.25, severity="warning",
            description="merged API p99 above the 250ms objective",
        ),
        AlertRule(
            name="critical-drift", signal="drift_critical",
            op=">=", threshold=1.0, severity="critical",
            description="latest drift report classified critical",
        ),
        AlertRule(
            name="preference-score-psi", signal="drift_preferences_psi",
            op=">=", threshold=0.25, severity="warning",
            description="preference score distribution shifted (PSI)",
        ),
        AlertRule(
            name="graph-degree-psi", signal="drift_graph_psi",
            op=">=", threshold=0.25, severity="warning",
            description="graph degree distribution shifted (PSI)",
        ),
    ]


class AlertManager:
    """Evaluates rules over signal dicts and tracks firing/resolved state.

    A rule with no datapoint for its signal keeps its previous state —
    absence of data is not evidence of recovery.
    """

    def __init__(
        self,
        rules: list[AlertRule] | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        logger=None,
        event_capacity: int = 256,
    ) -> None:
        self._rules: list[AlertRule] = []
        self._clock = clock or Clock()
        self._metrics = metrics
        self._logger = logger
        self._state: dict[str, dict] = {}
        self._events: deque[dict] = deque(maxlen=event_capacity)
        for rule in rules if rules is not None else default_alert_rules():
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> None:
        if any(existing.name == rule.name for existing in self._rules):
            raise ConfigError(f"alert rule {rule.name!r} already registered")
        self._rules.append(rule)
        self._state[rule.name] = {
            "firing": False, "breaches": 0, "since": None, "value": None,
        }

    # ------------------------------------------------------------------
    def evaluate(self, signals: dict) -> list[dict]:
        """Apply every rule to ``signals``; returns this cycle's transitions."""
        now = self._clock.time()
        transitions: list[dict] = []
        for rule in self._rules:
            value = signals.get(rule.signal)
            if value is None:
                continue
            state = self._state[rule.name]
            state["value"] = float(value)
            if _OPS[rule.op](value, rule.threshold):
                state["breaches"] += 1
                if not state["firing"] and state["breaches"] >= rule.for_cycles:
                    state["firing"] = True
                    state["since"] = now
                    transitions.append(self._record(rule, "firing", value, now))
            else:
                state["breaches"] = 0
                if state["firing"]:
                    state["firing"] = False
                    state["since"] = None
                    transitions.append(self._record(rule, "resolved", value, now))
        if self._metrics is not None:
            firing = self.active()
            for severity in ("warning", "critical"):
                self._metrics.gauge(
                    "alerts_firing", help="Alerts currently firing", severity=severity,
                ).set(sum(1 for a in firing if a["severity"] == severity))
        return transitions

    def _record(self, rule: AlertRule, state: str, value: float, now: float) -> dict:
        event = {
            "rule": rule.name,
            "severity": rule.severity,
            "signal": rule.signal,
            "state": state,
            "value": float(value),
            "threshold": rule.threshold,
            "at": now,
        }
        self._events.append(event)
        if self._metrics is not None:
            self._metrics.counter(
                "alert_transitions_total", help="Alert state transitions",
                rule=rule.name, state=state,
            ).inc()
        if self._logger is not None:
            log = self._logger.warning if state == "firing" else self._logger.info
            log("alert_" + state, rule=rule.name, severity=rule.severity,
                signal=rule.signal, value=float(value), threshold=rule.threshold)
        return event

    # ------------------------------------------------------------------
    def active(self) -> list[dict]:
        """Currently firing alerts, in rule order."""
        out = []
        for rule in self._rules:
            state = self._state[rule.name]
            if state["firing"]:
                out.append(
                    {
                        "rule": rule.name,
                        "severity": rule.severity,
                        "signal": rule.signal,
                        "value": state["value"],
                        "threshold": rule.threshold,
                        "since": state["since"],
                        "description": rule.description,
                    }
                )
        return out

    def has_critical(self) -> bool:
        return any(alert["severity"] == "critical" for alert in self.active())

    def events(self) -> list[dict]:
        """Retained transition events, oldest first."""
        return list(self._events)

    def snapshot(self) -> dict:
        """JSON-safe dump for the ``/alerts`` endpoint and ``health()``."""
        return {
            "rules": [asdict(rule) for rule in self._rules],
            "active": self.active(),
            "events": self.events(),
        }


__all__ = [
    "SLObjective",
    "SLOTracker",
    "AlertRule",
    "AlertManager",
    "default_objectives",
    "default_alert_rules",
]
