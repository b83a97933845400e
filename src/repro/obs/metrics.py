"""Labeled metrics: counters, gauges, fixed-bucket histograms, exposition.

A :class:`MetricsRegistry` is the system's single metric namespace. Metric
identity follows the Prometheus model: a *family* is a name plus a type
(and, for histograms, a bucket layout); a *series* is a family plus one
concrete label set. Asking for the same ``(name, labels)`` twice returns
the same object, so increments aggregate; different label values are
independent series under one family.

Two read-out formats exist:

* :meth:`MetricsRegistry.render_prometheus` — the ``/metrics`` text
  exposition (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket``
  lines with ``le`` bounds, ``_sum`` / ``_count``);
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict with histogram
  summaries (count, sum, min/max, p50/p90/p99) for health endpoints.

Hot-path cost matters (the serving read path observes a histogram per
request): callers pre-bind series handles once and call ``observe`` /
``inc`` on them, which is a bucket bisect plus a few float adds. Metrics
whose source already keeps its own counters (e.g. the expansion cache) are
exported through *collectors* — callbacks run at read-out time that copy
the source's totals into registry series, costing nothing per operation.

Thread model: the serving front end drives this registry from a thread
pool, so every series mutator must be lossless under concurrency — a
bare ``+=`` is a read-modify-write that drops updates. Counters and
histograms get there *without* a hot-path lock: each writer thread owns a
private stripe (registered once under the series lock), so the
read-modify-write never crosses threads, and read-outs merge the stripes
under the lock. Totals are exact once writers quiesce; a scrape racing a
writer may trail by the observation in flight, which is ordinary metric
staleness, not corruption. Gauges (cold paths) take a per-series lock;
series/family *creation* is serialized by one registry lock. Pre-bound
handles stay the hot-path contract: the per-operation cost is one
thread-local fetch plus a few plain stores, well under the
observability-overhead gate.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable

from repro.errors import ConfigError

#: Default histogram upper bounds (seconds) — tuned for a read path that
#: answers in microseconds (cache hits) to seconds (offline stages).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_PERCENTILES = (0.5, 0.9, 0.99)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """``# HELP`` escaping per text format 0.0.4: backslash and newline
    only (quotes are legal in help text, unlike in label values)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str | None = None) -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing series (requests served, swaps performed).

    ``inc`` is lossless under concurrent callers without a lock: each
    thread accumulates into its own cell (a one-element list registered
    under the series lock the first time the thread writes), so the
    ``+=`` read-modify-write never crosses threads. ``value`` sums the
    cells — exact once writers quiesce, at most one in-flight increment
    stale during a racing scrape.
    """

    __slots__ = ("_base", "_cells", "_local", "_lock")

    def __init__(self) -> None:
        self._base = 0.0
        self._cells: list[list[float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError("counters only go up; use a gauge")
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._local.cell = [0.0]
            with self._lock:
                self._cells.append(cell)
        cell[0] += amount

    def set_total(self, value: float) -> None:
        """Overwrite the running total — for read-through collectors only,
        where the authoritative count lives in the instrumented object and
        the series is never ``inc``'d (mixing the two would race the
        cell reset against a concurrent increment)."""
        with self._lock:
            self._base = float(value)
            for cell in self._cells:
                cell[0] = 0.0

    @property
    def value(self) -> float:
        return self._base + sum(cell[0] for cell in self._cells)


class Gauge:
    """Point-in-time series (active artifact version, cache size)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class _HistogramStripe:
    """One thread's private accumulator inside a striped histogram."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram:
    """Fixed-bucket latency distribution with percentile summaries.

    Bucket bounds are *inclusive upper* bounds (Prometheus ``le``
    semantics): an observation equal to a bound lands in that bound's
    bucket; anything above the last bound lands in the implicit ``+Inf``
    bucket. Percentiles interpolate linearly inside the chosen bucket and
    are clamped to the observed ``[min, max]``, so a single-sample
    distribution reports that sample at every quantile.

    ``observe`` is lossless under concurrent callers without a lock: each
    writer thread owns a private :class:`_HistogramStripe` and read-outs
    merge the stripes under the series lock (same design as
    :class:`Counter`).
    """

    __slots__ = ("_bounds", "_stripes", "_local", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError("histogram buckets must be a non-empty ascending sequence")
        self._bounds = tuple(float(b) for b in bounds)
        self._stripes: list[_HistogramStripe] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- write path ----------------------------------------------------
    def _register_stripe(self) -> _HistogramStripe:
        stripe = self._local.stripe = _HistogramStripe(len(self._bounds) + 1)
        with self._lock:
            self._stripes.append(stripe)
        return stripe

    def observe(self, value: float) -> None:
        try:
            stripe = self._local.stripe
        except AttributeError:
            stripe = self._register_stripe()
        stripe.counts[bisect_left(self._bounds, value)] += 1
        stripe.count += 1
        stripe.sum += value
        if value < stripe.min:
            stripe.min = value
        if value > stripe.max:
            stripe.max = value

    # -- read path (merges stripes; exact once writers quiesce) --------
    def _merged(self) -> _HistogramStripe:
        total = _HistogramStripe(len(self._bounds) + 1)
        counts = total.counts
        with self._lock:
            stripes = list(self._stripes)
        for stripe in stripes:
            for i, c in enumerate(stripe.counts):
                counts[i] += c
            total.count += stripe.count
            total.sum += stripe.sum
            if stripe.min < total.min:
                total.min = stripe.min
            if stripe.max > total.max:
                total.max = stripe.max
        return total

    @property
    def count(self) -> int:
        return self._merged().count

    @property
    def sum(self) -> float:
        return self._merged().sum

    @property
    def min(self) -> float:
        return self._merged().min

    @property
    def max(self) -> float:
        return self._merged().max

    @staticmethod
    def _percentile_of(
        bounds: tuple[float, ...], m: _HistogramStripe, q: float
    ) -> float | None:
        if m.count == 0:
            return None
        target = q * m.count
        cumulative = 0
        lower = 0.0 if m.min >= 0 else m.min
        for i, upper in enumerate(bounds):
            bucket = m.counts[i]
            if bucket and cumulative + bucket >= target:
                estimate = lower + (upper - lower) * (target - cumulative) / bucket
                return min(max(estimate, m.min), m.max)
            cumulative += bucket
            lower = upper
        return m.max  # target falls in the +Inf bucket

    def percentile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (``0 < q <= 1``); ``None`` when empty."""
        return self._percentile_of(self._bounds, self._merged(), q)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        m = self._merged()
        pairs = []
        cumulative = 0
        for bound, count in zip(self._bounds, m.counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((math.inf, m.count))
        return pairs

    def summary(self) -> dict:
        """JSON-safe digest for snapshots and health endpoints.

        An empty histogram reports only ``count``/``sum`` — percentiles of
        nothing are omitted rather than rendered as a misleading 0/NaN.
        """
        m = self._merged()
        if m.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": m.count,
            "sum": m.sum,
            "min": m.min,
            "max": m.max,
            "mean": m.sum / m.count,
            **{
                f"p{int(q * 100)}": self._percentile_of(self._bounds, m, q)
                for q in _PERCENTILES
            },
        }


class _Noop:
    """Shared do-nothing metric for disabled registries (zero hot-path cost)."""

    def inc(self, amount: float = 1.0) -> None: ...
    def dec(self, amount: float = 1.0) -> None: ...
    def set(self, value: float) -> None: ...
    def set_total(self, value: float) -> None: ...
    def observe(self, value: float) -> None: ...
    def percentile(self, q: float) -> None:
        return None

    def summary(self) -> dict:
        return {"count": 0}

    @property
    def value(self) -> float:
        return 0.0


_NOOP = _Noop()


class _Family:
    """One metric name: its type, help text and every labeled series."""

    __slots__ = ("name", "type", "help", "buckets", "series")

    def __init__(self, name: str, type_: str, help_: str, buckets=None) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.buckets = buckets
        self.series: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """The system's metric namespace; one per :class:`~repro.obs.Observability`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []
        # Serializes family/series *creation* only — two threads asking for
        # the same (name, labels) must get the same object, or pre-bound
        # handles diverge and one side's increments vanish from the
        # exposition. Pre-bound hot paths never reach this lock.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Series access (pre-bind the result on hot paths)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._series(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._series(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        buckets = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        with self._lock:
            family = self._family(name, "histogram", help, buckets)
            if family is None:
                return _NOOP
            if family.buckets != buckets:
                raise ConfigError(f"histogram {name!r} already registered with other buckets")
            key = _label_key(labels)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Histogram(buckets)
            return series

    def _series(self, name, type_, help_, labels, factory):
        with self._lock:
            family = self._family(name, type_, help_)
            if family is None:
                return _NOOP
            key = _label_key(labels)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = factory()
            return series

    def _family(self, name: str, type_: str, help_: str, buckets=None) -> _Family | None:
        # Callers hold self._lock.
        if not self.enabled:
            return None
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, type_, help_, buckets)
        elif family.type != type_:
            raise ConfigError(
                f"metric {name!r} is a {family.type}, cannot re-register as {type_}"
            )
        if help_ and not family.help:
            family.help = help_
        return family

    # ------------------------------------------------------------------
    # Collectors (read-through export of externally-counted state)
    # ------------------------------------------------------------------
    def add_collector(self, collect: Callable[[], None]) -> None:
        """Register a callback run before every render/snapshot; it should
        copy authoritative totals into registry series via ``set_total`` /
        ``set``. Keeps instrumented hot paths free of registry calls."""
        if self.enabled:
            self._collectors.append(collect)

    def _run_collectors(self) -> None:
        for collect in self._collectors:
            collect()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The ``/metrics`` text exposition (Prometheus text format 0.0.4)."""
        if not self.enabled:
            return ""
        self._run_collectors()
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.type}")
            for key in sorted(family.series):
                series = family.series[key]
                if family.type == "histogram":
                    for bound, cumulative in series.cumulative_buckets():
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        labeled = _format_labels(key, f'le="{le}"')
                        lines.append(f"{name}_bucket{labeled} {cumulative}")
                    lines.append(f"{name}_sum{_format_labels(key)} {_format_value(series.sum)}")
                    lines.append(f"{name}_count{_format_labels(key)} {series.count}")
                else:
                    lines.append(f"{name}{_format_labels(key)} {_format_value(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-safe dump: scalar series values, histogram summaries."""
        if not self.enabled:
            return {"enabled": False}
        self._run_collectors()
        out: dict = {"enabled": True, "counters": {}, "gauges": {}, "histograms": {}}
        for name, family in sorted(self._families.items()):
            section = out[family.type + "s"]
            section[name] = [
                {
                    "labels": dict(key),
                    **(
                        series.summary()
                        if family.type == "histogram"
                        else {"value": series.value}
                    ),
                }
                for key, series in sorted(family.series.items())
            ]
        return out

    def series(self, name: str) -> list[tuple[dict[str, str], object]]:
        """Every labeled series of one family as ``(labels, series)`` pairs.

        The read surface for aggregating over a family; returns ``[]``
        for unknown families and on disabled registries. Collectors run
        first so read-through totals are current.
        """
        family = self._families.get(name)
        if family is None:
            return []
        self._run_collectors()
        return [(dict(key), series) for key, series in sorted(family.series.items())]

    def get_value(self, name: str, **labels: str) -> float | None:
        """Test/debug convenience: current value of one scalar series."""
        self._run_collectors()
        family = self._families.get(name)
        if family is None:
            return None
        series = family.series.get(_label_key(labels))
        return None if series is None else series.value
