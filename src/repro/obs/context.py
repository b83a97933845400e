"""One request, one record: the ambient :class:`RequestRecord` and its ring.

A :class:`RequestRecord` is everything the system keeps about one request:
identity, outcome, the artifact versions that served it, queue wait, cache
hit/miss, degraded reason, hop sizes and a nested waterfall of timed
phases. The outermost entry point opens it
(:meth:`~repro.serving.frontend.QueryFrontend.dispatch`, or
``EGLService._run`` when the service is driven without a front end) and
binds it into a :mod:`contextvars` slot, so every layer underneath —
runtime, cache, kernels, structured logs — reaches the current request
without a parameter threaded through a dozen signatures. The opener closes
it exactly once, on every outcome (ok, error, shed, escaped exception),
which appends it to the system's one bounded ring: :class:`RequestLog`,
served as flat NDJSON by ``/journeys``.

:func:`phase` is the one timed-region primitive. Inside a request it
writes the phase's name and start time to the record's flat event list and
hands the record back as the context manager whose exit writes the end
time; nesting is recovered at read-out. Outside any request it is a shared
no-op, so kernels called offline pay one ``ContextVar.get``.

The ring holds scalars only — numbers, short strings, the hop-size tuple
and the phase events. A record never references the response, its payload
or the expansion view: anything retained here stays alive for a full ring
lap, and freeing a payload's dict tree 256 requests later, cache-cold,
costs more than the record itself. Nothing is formatted until a read-out
asks (:meth:`RequestLog.tail`, :meth:`RequestLog.phase_totals`).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from contextvars import ContextVar

#: Process-wide request id mint: small integers, unique across every
#: system in the process, deterministic under test.
next_request_id = itertools.count(1).__next__

#: The ambient request slot. ``None`` outside any request.
_AMBIENT: ContextVar["RequestRecord | None"] = ContextVar(
    "repro_request_record", default=None
)

#: Finished records the ring keeps (old requests age out — this is a
#: serving process, not a log store).
RING_CAPACITY = 256

#: Envelope codes that count as shed (refused by admission machinery rather
#: than failed while computing). The first two originate in the runtime,
#: the rest in the front end.
_SHED_CODES = (
    "circuit_open", "deadline_exceeded", "queue_full", "queue_timeout", "draining",
)


class RequestRecord:
    """One request, start to finish (see module docstring).

    ``id``, ``endpoint`` and the phase events are written while the request
    runs; layers fill ``queue_wait_ms`` / ``cache`` / ``degraded`` /
    ``hops`` as they learn them (directly or through :func:`annotate`);
    :meth:`RequestLog.close` stamps ``ts``, ``duration_ms``, the outcome
    and both artifact versions. A record belongs to the one thread serving
    its request, so nothing here locks.
    """

    __slots__ = (
        "id", "endpoint", "ts", "duration_ms", "ok", "code",
        "graph_version", "preference_version",
        "queue_wait_ms", "cache", "degraded", "hops",
        "_events", "_perf", "_start",
    )

    def __init__(self, endpoint: str, perf) -> None:
        self.id = next_request_id()
        self.endpoint = endpoint
        self.queue_wait_ms = self.cache = self.degraded = self.hops = None
        #: Flat phase log: opening a phase appends its name then its start
        #: time, closing one appends its end time. A string therefore opens
        #: a phase and a float not preceded by a string closes the innermost
        #: open one — :meth:`phases` rebuilds the rows.
        self._events: list = []
        self._perf = perf
        self._start = perf()

    # The record is the context manager :func:`phase` returns: entering is
    # free, leaving stamps the end of the innermost open phase.
    def __enter__(self) -> "RequestRecord":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._events.append(self._perf())

    def phases(self) -> list[list]:
        """``[name, depth, start_s, duration_s]`` rows in opening order
        (start relative to the request's own start)."""
        rows: list[list] = []
        open_rows: list[list] = []
        events = iter(self._events)
        for event in events:
            if isinstance(event, str):
                row = [event, len(open_rows), next(events) - self._start, 0.0]
                rows.append(row)
                open_rows.append(row)
            else:
                row = open_rows.pop()
                row[3] = event - self._start - row[2]
        return rows

    def to_dict(self) -> dict:
        """The flat ``/journeys`` row; phase times in µs from request start."""
        return {
            "id": self.id,
            "endpoint": self.endpoint,
            "ts": self.ts,
            "duration_ms": self.duration_ms,
            "ok": self.ok,
            "code": self.code,
            "graph_version": self.graph_version,
            "preference_version": self.preference_version,
            "queue_wait_ms": self.queue_wait_ms,
            "cache": self.cache,
            "degraded": self.degraded,
            "shed": self.code in _SHED_CODES,
            "hops": None if self.hops is None else list(self.hops),
            "phases": [
                [name, depth, round(start * 1e6, 3), round(duration * 1e6, 3)]
                for name, depth, start, duration in self.phases()
            ],
        }


class _NoopPhase:
    """What :func:`phase` hands out when no request is bound."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_PHASE = _NoopPhase()


def phase(name: str):
    """Time a region of the current request: ``with phase("khop"): ...``.

    Nests under whichever phase is open; a no-op outside any request.
    ``with phase(name) as record`` yields the current record (``None``
    outside a request) to layers that also annotate it. The returned
    object must be entered at once (always use it in ``with``).
    """
    record = _AMBIENT.get()
    if record is None:
        return _NOOP_PHASE
    events = record._events
    events.append(name)
    events.append(record._perf())
    return record


def current_record() -> RequestRecord | None:
    """The ambient request record, or ``None`` outside any request."""
    return _AMBIENT.get()


def current_request_id() -> int | None:
    """The ambient request id, or ``None`` outside any request."""
    record = _AMBIENT.get()
    return record.id if record is not None else None


def annotate(**fields) -> None:
    """Set record fields (``degraded=...``, ``queue_wait_ms=...``) on the
    current request, if any — the cold-path spelling of "if a record is
    bound"."""
    record = _AMBIENT.get()
    if record is not None:
        for name, value in fields.items():
            setattr(record, name, value)


class RequestLog:
    """The one bounded ring of finished request records.

    ``enabled=False`` (the :meth:`Observability.disabled` bundle) opens no
    records at all, so :func:`phase` stays a no-op under it — the baseline
    the overhead benchmark measures against.
    """

    def __init__(self, clock, enabled: bool = True) -> None:
        self.enabled = enabled
        self._perf = clock.perf
        self._time = clock.time
        self._ring: deque[RequestRecord] = deque(maxlen=RING_CAPACITY)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    # ------------------------------------------------------------------
    def open(self, endpoint: str) -> RequestRecord | None:
        """Open and bind the record of a request entering the system.

        Returns ``None`` — nothing for the caller to close — when a record
        is already bound (an outer entry point opened it and will close
        it) or the log is disabled.
        """
        if not self.enabled or _AMBIENT.get() is not None:
            return None
        record = RequestRecord(endpoint, self._perf)
        _AMBIENT.set(record)
        return record

    def close(
        self,
        record: RequestRecord | None,
        ok: bool = False,
        code: str | None = "internal",
        graph_version: int | None = None,
        preference_version: int | None = None,
    ) -> None:
        """Unbind ``record``, stamp its outcome and append it to the ring.

        The defaults describe a request that escaped with a
        non-``ReproError``: callers on that path pass the record alone.
        """
        if record is None:
            return
        _AMBIENT.set(None)  # only the outermost entry point binds
        record.duration_ms = (self._perf() - record._start) * 1000
        record.ts = self._time()
        record.ok = ok
        record.code = code
        record.graph_version = graph_version
        record.preference_version = preference_version
        self._ring.append(record)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` records (all, when ``n`` is ``None``),
        oldest first, rendered to JSON-safe dicts."""
        records = list(self._ring)
        if n is not None and n >= 0:
            records = records[-n:] if n else []
        return [record.to_dict() for record in records]

    def to_ndjson(self, n: int | None = None) -> str:
        """NDJSON body for the ``/journeys`` telemetry route."""
        return "".join(json.dumps(row) + "\n" for row in self.tail(n))

    def phase_totals(self) -> list[dict]:
        """Per phase path (``api;runtime;khop``): call count, inclusive and
        self µs summed over the ring — the ``/profile`` aggregate."""
        totals: dict[str, list] = {}
        for record in list(self._ring):
            path: list[str] = []
            for name, depth, _start, duration in record.phases():
                del path[depth:]
                path.append(name)
                row = totals.setdefault(";".join(path), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration
                if depth:
                    totals[";".join(path[:depth])][2] -= duration
        return [
            {
                "phase": key,
                "count": count,
                "total_us": round(total * 1e6, 3),
                "self_us": round(max(0.0, own) * 1e6, 3),
            }
            for key, (count, total, own) in sorted(totals.items())
        ]


__all__ = [
    "RING_CAPACITY",
    "RequestRecord",
    "RequestLog",
    "phase",
    "current_record",
    "current_request_id",
    "annotate",
]
