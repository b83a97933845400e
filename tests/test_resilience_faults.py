"""FaultInjector: seeded schedules are reproducible, latency respects the
manual clock, and no state leaks between injector instances."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, StorageError
from repro.obs import ManualClock
from repro.resilience import FaultInjector, InjectedCrash, InjectedFault


def drive(injector: FaultInjector, seam: str, calls: int) -> list[int]:
    """Run ``calls`` checks; return the 1-based call numbers that failed."""
    failed = []
    for n in range(1, calls + 1):
        try:
            injector.check(seam)
        except (InjectedFault, InjectedCrash):
            failed.append(n)
    return failed


def test_unconfigured_seam_is_a_no_op():
    injector = FaultInjector(seed=1)
    injector.check("registry.write")
    assert injector.calls("registry.write") == 1
    assert injector.failures("registry.write") == 0


def test_error_rate_schedule_is_seed_reproducible():
    outcomes = []
    for _ in range(2):
        injector = FaultInjector(seed=7)
        injector.configure("registry.write", error_rate=0.3)
        outcomes.append(drive(injector, "registry.write", 100))
    assert outcomes[0] == outcomes[1]
    assert 10 <= len(outcomes[0]) <= 50  # ~30 failures out of 100

    different = FaultInjector(seed=8)
    different.configure("registry.write", error_rate=0.3)
    assert drive(different, "registry.write", 100) != outcomes[0]


def test_fail_at_fires_on_exact_call_numbers():
    injector = FaultInjector()
    injector.fail_at("pipeline.ranked", 2, 5, exception=InjectedCrash)
    assert drive(injector, "pipeline.ranked", 6) == [2, 5]


def test_fail_next_is_relative_to_the_current_count():
    injector = FaultInjector()
    injector.check("store.read")  # call #1 passes
    injector.fail_next("store.read", count=2)
    assert drive(injector, "store.read", 3) == [1, 2]  # calls #2 and #3 fail


def test_max_failures_caps_rate_driven_errors():
    injector = FaultInjector(seed=3)
    injector.configure("seam", error_rate=1.0, max_failures=2)
    assert drive(injector, "seam", 10) == [1, 2]
    assert injector.failures("seam") == 2


def test_latency_advances_the_manual_clock_only():
    clock = ManualClock()
    injector = FaultInjector(seed=0, clock=clock)
    injector.configure("registry.read", latency=0.25)
    for _ in range(4):
        injector.check("registry.read")
    assert clock.perf() == pytest.approx(1.0)  # 4 x 250 ms, zero real time


def test_latency_rate_is_seeded():
    def measure(seed: int) -> float:
        clock = ManualClock()
        injector = FaultInjector(seed=seed, clock=clock)
        injector.configure("seam", latency=0.1, latency_rate=0.5)
        for _ in range(50):
            injector.check("seam")
        return clock.perf()

    assert measure(5) == measure(5)
    assert 0.0 < measure(5) < 5.0


def test_exception_taxonomy():
    # InjectedFault is transient storage-shaped (retryable by default);
    # InjectedCrash is a process kill no retry policy may resurrect.
    assert issubclass(InjectedFault, StorageError)
    assert issubclass(InjectedCrash, ReproError)
    assert not issubclass(InjectedCrash, StorageError)


def test_instances_share_no_state():
    a = FaultInjector(seed=1)
    a.configure("seam", error_rate=1.0)
    with pytest.raises(InjectedFault):
        a.check("seam")

    b = FaultInjector(seed=1)
    b.check("seam")  # unconfigured in the fresh injector — passes
    assert b.calls("seam") == 1
    assert b.failures("seam") == 0
    assert a.failures("seam") == 1  # and b's call did not touch a


def test_clear_drops_schedules_but_keeps_counters():
    injector = FaultInjector()
    injector.configure("seam", error_rate=1.0)
    with pytest.raises(InjectedFault):
        injector.check("seam")
    injector.clear("seam")
    injector.check("seam")  # passes now
    assert injector.calls("seam") == 2


def test_snapshot_reports_every_touched_seam():
    injector = FaultInjector()
    injector.configure("a", error_rate=1.0, max_failures=1)
    drive(injector, "a", 2)
    injector.check("b")
    snap = injector.snapshot()
    assert snap["a"] == {"calls": 2, "failures": 1, "configured": True}
    assert snap["b"] == {"calls": 1, "failures": 0, "configured": False}


def test_invalid_configuration_rejected():
    injector = FaultInjector()
    with pytest.raises(ValueError):
        injector.configure("seam", error_rate=1.5)
    with pytest.raises(ValueError):
        injector.configure("seam", latency=-1.0)
