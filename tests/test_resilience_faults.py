"""FaultInjector: scripted failures fire on exact call numbers, and no
state leaks between injector instances."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, StorageError
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
    injector = FaultInjector()
    injector.check("registry.write")
    assert injector.calls("registry.write") == 1


def test_fail_at_fires_on_exact_call_numbers():
    injector = FaultInjector()
    injector.fail_at("pipeline.ranked", 2, 5, exception=InjectedCrash)
    assert drive(injector, "pipeline.ranked", 6) == [2, 5]


def test_fail_next_is_relative_to_the_current_count():
    injector = FaultInjector()
    injector.check("store.read")  # call #1 passes
    injector.fail_next("store.read", count=2)
    assert drive(injector, "store.read", 3) == [1, 2]  # calls #2 and #3 fail


def test_each_scripted_call_raises_its_own_exception():
    injector = FaultInjector()
    injector.fail_at("seam", 1)  # a crash by default
    injector.fail_next("seam")  # a storage fault by default: call #1 again
    injector.fail_at("seam", 2)
    with pytest.raises(InjectedFault):
        injector.check("seam")
    with pytest.raises(InjectedCrash):
        injector.check("seam")


def test_exception_taxonomy():
    # InjectedFault is a storage error, answered like any other;
    # InjectedCrash stands in for a process kill and is not one.
    assert issubclass(InjectedFault, StorageError)
    assert issubclass(InjectedCrash, ReproError)
    assert not issubclass(InjectedCrash, StorageError)


def test_instances_share_no_state():
    a = FaultInjector()
    a.fail_next("seam")
    with pytest.raises(InjectedFault):
        a.check("seam")

    b = FaultInjector()
    b.check("seam")  # nothing scripted in the fresh injector — passes
    assert b.calls("seam") == 1
    assert a.calls("seam") == 1  # and b's call did not touch a
