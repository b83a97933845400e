"""Seeded fault injection for chaos-style tests.

Production failures — flaky storage, slow dependencies, a process killed
mid-refresh — are injected at named *seams* (``registry.write``,
``pipeline.candidates``, ``checkpoint.write``, ...). Components that accept
a :class:`FaultInjector` call :meth:`FaultInjector.check` at their seam;
the injector then, per its configured schedule, adds latency (through the
injectable clock, so :class:`~repro.obs.ManualClock` time is respected),
raises an error, or does nothing.

Everything is deterministic: random error rates draw from one seeded
``random.Random`` per injector, and scripted failures (``fail_at`` /
``fail_next``) fire on exact 1-based call numbers. Injector state is
per-instance — tests that build a fresh injector share nothing with any
other test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ReproError, StorageError
from repro.obs.clock import Clock


class InjectedFault(StorageError):
    """An error raised by the fault injector.

    Subclasses :class:`StorageError` because the seams it fires at are
    storage-shaped; retry policies treat it as transient by default.
    """


class InjectedCrash(ReproError):
    """A scripted process "kill" — deliberately *not* a StorageError so no
    retry policy resurrects it; tests catch it where a real crash would
    have torn the process down."""


@dataclass
class FaultSpec:
    """Schedule for one seam."""

    error_rate: float = 0.0
    latency: float = 0.0
    latency_rate: float = 1.0
    #: Exact 1-based call numbers that must fail (scripted kills).
    fail_calls: set[int] = field(default_factory=set)
    #: Cap on how many rate-driven errors may fire (scripted ones always do).
    max_failures: int | None = None
    exception: type[Exception] = InjectedFault


class FaultInjector:
    """Deterministic fault source, shared by every seam of one system."""

    def __init__(self, seed: int = 0, clock: Clock | None = None) -> None:
        self._rng = random.Random(seed)
        self._clock = clock or Clock()
        self._specs: dict[str, FaultSpec] = {}
        self._calls: dict[str, int] = {}
        self._failures: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        seam: str,
        error_rate: float = 0.0,
        latency: float = 0.0,
        latency_rate: float = 1.0,
        max_failures: int | None = None,
        exception: type[Exception] = InjectedFault,
    ) -> FaultSpec:
        """Install (or replace) the schedule for one seam."""
        if not 0.0 <= error_rate <= 1.0 or not 0.0 <= latency_rate <= 1.0:
            raise ValueError("rates must be within [0, 1]")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        spec = FaultSpec(
            error_rate=error_rate,
            latency=latency,
            latency_rate=latency_rate,
            max_failures=max_failures,
            exception=exception,
        )
        self._specs[seam] = spec
        return spec

    def fail_at(
        self, seam: str, *call_numbers: int,
        exception: type[Exception] = InjectedCrash,
    ) -> None:
        """Script exact failures: the Nth ``check(seam)`` (1-based) raises."""
        spec = self._specs.setdefault(seam, FaultSpec())
        spec.fail_calls.update(int(n) for n in call_numbers)
        spec.exception = exception

    def fail_next(
        self, seam: str, count: int = 1,
        exception: type[Exception] = InjectedFault,
    ) -> None:
        """Fail the next ``count`` calls at the seam, then behave normally."""
        start = self._calls.get(seam, 0) + 1
        self.fail_at(seam, *range(start, start + count), exception=exception)

    def clear(self, seam: str | None = None) -> None:
        """Drop schedules (one seam or all); call counters survive."""
        if seam is None:
            self._specs.clear()
        else:
            self._specs.pop(seam, None)

    # ------------------------------------------------------------------
    # The seam hook
    # ------------------------------------------------------------------
    def check(self, seam: str) -> None:
        """Count one call at the seam; maybe inject latency and/or raise."""
        call = self._calls.get(seam, 0) + 1
        self._calls[seam] = call
        spec = self._specs.get(seam)
        if spec is None:
            return
        if spec.latency > 0 and (
            spec.latency_rate >= 1.0 or self._rng.random() < spec.latency_rate
        ):
            self._clock.sleep(spec.latency)
        if call in spec.fail_calls:
            self._failures[seam] = self._failures.get(seam, 0) + 1
            raise spec.exception(f"injected fault at {seam} (call #{call})")
        if spec.error_rate > 0 and (
            spec.max_failures is None
            or self._failures.get(seam, 0) < spec.max_failures
        ):
            if spec.error_rate >= 1.0 or self._rng.random() < spec.error_rate:
                self._failures[seam] = self._failures.get(seam, 0) + 1
                raise spec.exception(f"injected fault at {seam} (call #{call})")

    # ------------------------------------------------------------------
    # Introspection (what the chaos tests assert on)
    # ------------------------------------------------------------------
    def calls(self, seam: str) -> int:
        return self._calls.get(seam, 0)

    def failures(self, seam: str) -> int:
        return self._failures.get(seam, 0)

    def snapshot(self) -> dict:
        """Seam → {calls, failures} for every seam ever touched."""
        seams = set(self._calls) | set(self._specs)
        return {
            seam: {
                "calls": self._calls.get(seam, 0),
                "failures": self._failures.get(seam, 0),
                "configured": seam in self._specs,
            }
            for seam in sorted(seams)
        }
