"""Deterministic phase profiler + per-generation resource accounting.

The CSR kernels from the snapshot substrate dominate the cold serving
path, and aggregate histograms can't say *which phase* of a frontier
sweep burned the time. A :class:`PhaseProfiler` is a stack of named phase
timers on the injectable clock: hot paths open phases with
``with prof.phase("hop.gather"):`` and the profiler accumulates
``(total seconds, count)`` per *stack path*, so the same child name under
different parents stays distinct. Read-outs:

* :meth:`PhaseProfiler.report` — JSON-safe rows with total/self time and
  per-root attribution (what fraction of a root's wall time its children
  explain — the acceptance gate asks ≥90% for a cold CSR expansion);
* :meth:`PhaseProfiler.collapsed` — collapsed-stack lines
  (``root;child <self-µs>``) that flamegraph tooling ingests directly.

Phases are deterministic under :class:`~repro.obs.clock.ManualClock`
(there is no sampling — every phase boundary is an explicit timer), and
the disabled profiler (:data:`NOOP_PROFILER`) hands out a shared no-op
context manager so uninstrumented call sites cost two dict-free calls.

Kernels fetch the profiler ambiently via :func:`current_profiler` — the
request context carries it, so offline/test calls with no bound request
profile into the no-op and pay nothing.

Resource accounting rides along: :func:`record_mmap_open` counts mmap
artifact opens per kind (process-wide, stamped at the ``np.load`` call
sites), and a :class:`ResourceAccountant` exports per-generation gauges
(artifact bytes on disk, artifact counts, mmap opens) through read-time
metric collectors — zero cost on any serving path.
"""

from __future__ import annotations

import os
import threading

from repro.obs.clock import Clock
from repro.obs.context import current_context


class _PhaseStack(threading.local):
    """Per-thread open-phase stack — concurrent requests time their own
    phase nesting without interleaving paths (``__init__`` runs once per
    thread on first access)."""

    def __init__(self) -> None:
        self.stack: list[str] = []


class _NoopPhase:
    """Shared do-nothing phase for the disabled profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NoopPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_PHASE = _NoopPhase()


class _Phase:
    """One open phase; a context manager that times enter→exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Phase":
        profiler = self._profiler
        profiler._stacks.stack.append(self._name)
        self._start = profiler._perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        profiler = self._profiler
        elapsed = profiler._perf() - self._start
        stack = profiler._stacks.stack
        path = tuple(stack)
        stack.pop()
        # The totals table is shared across threads: the in-place
        # ``entry[0] += elapsed`` is a read-modify-write, so accumulate
        # under the profiler's lock (uncontended ~100ns per phase exit).
        with profiler._totals_lock:
            totals = profiler._totals
            entry = totals.get(path)
            if entry is None:
                totals[path] = [elapsed, 1]
            else:
                entry[0] += elapsed
                entry[1] += 1
        return False


class PhaseProfiler:
    """Accumulates wall time per named phase path (see module docstring)."""

    def __init__(self, clock: Clock | None = None, enabled: bool = True) -> None:
        self.enabled = enabled
        self._perf = (clock or Clock()).perf
        self._stacks = _PhaseStack()
        #: path tuple → [total_seconds, count]; guarded by _totals_lock
        self._totals: dict[tuple[str, ...], list] = {}
        self._totals_lock = threading.Lock()

    def phase(self, name: str):
        """Open a timed phase nested under the currently open one."""
        if not self.enabled:
            return _NOOP_PHASE
        return _Phase(self, name)

    def reset(self) -> None:
        with self._totals_lock:
            self._totals.clear()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-safe phase rows plus per-root attribution.

        Each row: dotted ``phase`` path, ``depth``, call ``count``,
        ``total_s`` (inclusive) and ``self_s`` (exclusive of children).
        ``roots`` maps each top-level phase to its total and
        ``attributed`` — the fraction of its time explained by direct
        children (1.0 for leaves with no children would be meaningless,
        so leaf roots report ``None``).
        """
        with self._totals_lock:  # read-out may race a serving thread
            totals = {path: list(entry) for path, entry in self._totals.items()}
        rows = []
        roots: dict[str, dict] = {}
        for path in sorted(totals):
            total, count = totals[path]
            depth = len(path)
            child_sum = sum(
                t
                for p, (t, _c) in totals.items()
                if len(p) == depth + 1 and p[:depth] == path
            )
            has_children = any(
                len(p) == depth + 1 and p[:depth] == path for p in totals
            )
            rows.append(
                {
                    "phase": ";".join(path),
                    "depth": depth - 1,
                    "count": count,
                    "total_s": total,
                    "self_s": max(0.0, total - child_sum),
                }
            )
            if depth == 1:
                roots[path[0]] = {
                    "total_s": total,
                    "count": count,
                    "attributed": (child_sum / total)
                    if has_children and total > 0
                    else None,
                }
        return {"enabled": self.enabled, "phases": rows, "roots": roots}

    def collapsed(self) -> str:
        """Collapsed-stack export (``a;b;c <self-time-µs>`` per line)."""
        with self._totals_lock:
            totals = {path: list(entry) for path, entry in self._totals.items()}
        lines = []
        for path in sorted(totals):
            total = totals[path][0]
            depth = len(path)
            child_sum = sum(
                t
                for p, (t, _c) in totals.items()
                if len(p) == depth + 1 and p[:depth] == path
            )
            self_us = max(0.0, total - child_sum) * 1e6
            lines.append(f"{';'.join(path)} {round(self_us)}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Shared disabled profiler — what kernels get outside any request.
NOOP_PROFILER = PhaseProfiler(enabled=False)


def current_profiler() -> PhaseProfiler:
    """The ambient request's profiler, or :data:`NOOP_PROFILER`.

    Kernels call this once per invocation and hold the result — never
    per phase.
    """
    ctx = current_context()
    if ctx is not None and ctx.profiler is not None:
        return ctx.profiler
    return NOOP_PROFILER


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------

#: Process-wide mmap open counts per artifact kind. Stamped at the
#: ``np.load(..., mmap_mode="r")`` call sites, so every generation swap
#: that remaps (rather than copies) is visible.
_MMAP_OPENS: dict[str, int] = {}


def record_mmap_open(kind: str) -> None:
    """Count one memory-mapped artifact open (``graph``, ``preferences``)."""
    _MMAP_OPENS[kind] = _MMAP_OPENS.get(kind, 0) + 1


def mmap_open_counts() -> dict[str, int]:
    """A copy of the per-kind mmap open counters."""
    return dict(_MMAP_OPENS)


def _tree_bytes(path: str) -> int:
    """Total file bytes under ``path`` (a file or a directory)."""
    try:
        if os.path.isfile(path):
            return os.path.getsize(path)
        total = 0
        for root, _dirs, files in os.walk(path):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
        return total
    except OSError:
        return 0


class ResourceAccountant:
    """Per-generation resource gauges, exported via read-time collectors.

    Walks the artifact registry's records at *read-out* time and exports:

    * ``artifact_disk_bytes{kind}`` — bytes on disk across that kind's
      retained generations;
    * ``artifact_generations{kind}`` — retained generation count;
    * ``artifact_mmap_opens_total{kind}`` — process mmap opens.

    Artifact directories are immutable once published, so byte totals are
    cached per path and each directory is walked once per process.
    """

    def __init__(self, metrics, registry=None, kinds=("graph", "preferences")) -> None:
        self._registry = registry
        self._kinds = tuple(kinds)
        self._bytes_cache: dict[str, int] = {}
        self._metrics = metrics
        if getattr(metrics, "enabled", False):
            metrics.add_collector(self._collect)

    def _path_bytes(self, path) -> int:
        if not path:
            return 0
        key = str(path)
        cached = self._bytes_cache.get(key)
        if cached is None:
            cached = self._bytes_cache[key] = _tree_bytes(key)
        return cached

    def usage(self) -> dict:
        """JSON-safe per-kind usage summary (the ``/profile`` payload)."""
        out: dict = {"mmap_opens": mmap_open_counts(), "artifacts": {}}
        if self._registry is None:
            return out
        for kind in self._kinds:
            try:
                records = self._registry.records(kind)
            except Exception:
                records = []
            out["artifacts"][kind] = {
                "generations": len(records),
                "disk_bytes": sum(self._path_bytes(record.path) for record in records),
            }
        return out

    def _collect(self) -> None:
        metrics = self._metrics
        usage = self.usage()
        for kind, stats in usage["artifacts"].items():
            metrics.gauge(
                "artifact_disk_bytes",
                help="Bytes on disk across retained artifact generations",
                kind=kind,
            ).set(stats["disk_bytes"])
            metrics.gauge(
                "artifact_generations",
                help="Retained artifact generations",
                kind=kind,
            ).set(stats["generations"])
        for kind, count in usage["mmap_opens"].items():
            metrics.counter(
                "artifact_mmap_opens_total",
                help="Memory-mapped artifact opens since process start",
                kind=kind,
            ).set_total(count)


__all__ = [
    "PhaseProfiler",
    "NOOP_PROFILER",
    "current_profiler",
    "record_mmap_open",
    "mmap_open_counts",
    "ResourceAccountant",
]
