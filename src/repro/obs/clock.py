"""Injectable time sources for the observability layer.

Everything in the system that stamps or measures time goes through a
:class:`Clock` so tests can freeze it: ``Clock`` delegates to the real
:mod:`time` module, :class:`ManualClock` only moves when told to. Two
scales are exposed, mirroring the stdlib split:

* :meth:`Clock.time` — wall-clock seconds since the epoch, for event
  timestamps (swap logs, request records, response timestamps);
* :meth:`Clock.perf` — a monotonic high-resolution counter, for durations
  (latency histograms, phase durations, uptime).
"""

from __future__ import annotations

import time as _time


class Clock:
    """Real time source — thin veneer over :mod:`time`.

    ``time`` and ``perf`` are the stdlib functions themselves (not method
    wrappers): callers that bind them once pay zero indirection per call,
    which matters on the per-request phase path.
    """

    #: Wall-clock seconds since the epoch (for timestamps).
    time = staticmethod(_time.time)

    #: Monotonic high-resolution seconds (for durations).
    perf = staticmethod(_time.perf_counter)


class ManualClock(Clock):
    """Deterministic clock for tests: time moves only via :meth:`advance`.

    Both scales advance together, so a frozen clock yields zero durations
    and a single ``advance(0.25)`` is observed as exactly 250 ms by every
    histogram and phase in flight.
    """

    def __init__(self, start: float = 1_700_000_000.0) -> None:
        self._wall = float(start)
        self._perf = 0.0

    def time(self) -> float:
        return self._wall

    def perf(self) -> float:
        return self._perf

    def advance(self, seconds: float) -> None:
        """Move both scales forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._wall += seconds
        self._perf += seconds
