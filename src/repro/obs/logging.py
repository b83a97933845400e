"""Structured JSON logging stamped with the ambient request id.

Operational events (hot-swaps, drift reports, rollbacks, refresh
lifecycle) need to be machine-readable and joinable against requests — an
ad-hoc ``print`` is neither. A :class:`StructuredLogger` emits one JSON
object per line with a timestamp from the injectable clock and, when a
:class:`~repro.obs.context.RequestRecord` is bound, its id as
``request_id`` — so a log line joins the one ``/journeys`` row of the
request that produced it.

Loggers are cheap views over one shared :class:`_LogSink`: ``child()``
derives a component-scoped logger that writes to the same ring buffer and
stream, and attaching a stream later (``attach_stream``) takes effect for
every logger in the family — the CLI uses this to turn on stderr emission
with one call. By default nothing is written to any stream; the bounded
in-memory ring keeps the recent records for tests and the health surface.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO

from repro.errors import ConfigError
from repro.obs.clock import Clock
from repro.obs.context import current_request_id

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _LogSink:
    """Shared destination for one logger family: ring buffer + stream."""

    __slots__ = ("stream", "records", "min_priority")

    def __init__(self, stream: IO | None, capacity: int, min_level: str) -> None:
        if min_level not in LEVELS:
            raise ConfigError(f"unknown log level {min_level!r}")
        self.stream = stream
        self.records: deque[dict] = deque(maxlen=capacity)
        self.min_priority = LEVELS[min_level]


class StructuredLogger:
    """JSON-lines logger bound to a component name.

    Parameters
    ----------
    component:
        Name stamped on every record (``runtime``, ``frontend``, ``resilience``).
    clock:
        The observability bundle's clock.
    stream:
        Optional text stream for immediate JSON-lines emission. ``None``
        (the default) keeps records only in the bounded ring buffer.
    """

    __slots__ = ("component", "enabled", "_clock", "_sink")

    def __init__(
        self,
        component: str = "repro",
        clock: Clock | None = None,
        stream: IO | None = None,
        min_level: str = "info",
        capacity: int = 512,
        enabled: bool = True,
        _sink: _LogSink | None = None,
    ) -> None:
        self.component = component
        self.enabled = enabled
        self._clock = clock or Clock()
        self._sink = _sink or _LogSink(stream, capacity, min_level)

    def child(self, component: str) -> "StructuredLogger":
        """A component-scoped view sharing this logger's sink and clock."""
        return StructuredLogger(
            component=component,
            clock=self._clock,
            enabled=self.enabled,
            _sink=self._sink,
        )

    def attach_stream(self, stream: IO | None) -> None:
        """(Re)direct emission for the whole logger family."""
        self._sink.stream = stream

    def set_level(self, min_level: str) -> None:
        if min_level not in LEVELS:
            raise ConfigError(f"unknown log level {min_level!r}")
        self._sink.min_priority = LEVELS[min_level]

    # ------------------------------------------------------------------
    def log(self, level: str, event: str, **fields) -> None:
        if not self.enabled or LEVELS.get(level, 0) < self._sink.min_priority:
            return
        record = {
            "ts": self._clock.time(),
            "level": level,
            "component": self.component,
            "event": event,
        }
        request_id = current_request_id()
        if request_id is not None:
            record["request_id"] = request_id
        record.update(fields)
        self._sink.records.append(record)
        stream = self._sink.stream
        if stream is not None:
            stream.write(json.dumps(record, default=str) + "\n")

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)

    # ------------------------------------------------------------------
    def records(self, level: str | None = None, event: str | None = None) -> list[dict]:
        """Recent records (family-wide), optionally filtered."""
        out = list(self._sink.records)
        if level is not None:
            out = [r for r in out if r["level"] == level]
        if event is not None:
            out = [r for r in out if r["event"] == event]
        return out


__all__ = ["LEVELS", "StructuredLogger"]
