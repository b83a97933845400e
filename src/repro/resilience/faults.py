"""Scripted fault injection for chaos-style tests.

Production failures — a storage error, a process killed mid-refresh — are
injected at named *seams* (``registry.write``, ``pipeline.candidates``,
``checkpoint.write``, ...). Components that accept a
:class:`FaultInjector` call :meth:`FaultInjector.check` at their seam;
the injector raises on the exact 1-based call numbers a test scripted
(``fail_at`` / ``fail_next``) and does nothing otherwise. Injector state
is per-instance — tests that build a fresh injector share nothing with
any other test.
"""

from __future__ import annotations

from repro.errors import ReproError, StorageError


class InjectedFault(StorageError):
    """A storage error raised by the fault injector.

    Subclasses :class:`StorageError` because the seams it fires at are
    storage-shaped; like any storage error it reaches the caller.
    """


class InjectedCrash(ReproError):
    """A scripted process "kill" — deliberately *not* a StorageError; tests
    catch it where a real crash would have torn the process down."""


class FaultInjector:
    """Deterministic fault source, shared by every seam of one system."""

    def __init__(self) -> None:
        #: Seam → {1-based call number: exception class to raise}.
        self._scripted: dict[str, dict[int, type[Exception]]] = {}
        self._calls: dict[str, int] = {}

    def fail_at(
        self, seam: str, *call_numbers: int,
        exception: type[Exception] = InjectedCrash,
    ) -> None:
        """Script exact failures: the Nth ``check(seam)`` (1-based) raises."""
        scripted = self._scripted.setdefault(seam, {})
        for n in call_numbers:
            scripted[int(n)] = exception

    def fail_next(
        self, seam: str, count: int = 1,
        exception: type[Exception] = InjectedFault,
    ) -> None:
        """Fail the next ``count`` calls at the seam, then behave normally."""
        start = self._calls.get(seam, 0) + 1
        self.fail_at(seam, *range(start, start + count), exception=exception)

    def check(self, seam: str) -> None:
        """Count one call at the seam; raise if that call was scripted."""
        call = self._calls.get(seam, 0) + 1
        self._calls[seam] = call
        exception = self._scripted.get(seam, {}).get(call)
        if exception is not None:
            raise exception(f"injected fault at {seam} (call #{call})")

    def calls(self, seam: str) -> int:
        return self._calls.get(seam, 0)
