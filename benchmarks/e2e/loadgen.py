"""Closed-loop load generator: keep-alive clients over real sockets.

Each client holds one keep-alive connection and waits for each reply
before it sends the next request (zero think time): a marketer clicks,
waits, clicks again. A request is already serialised and leaves with one
``sendall``. The client sets ``TCP_NODELAY`` on its own socket and nothing
else: no ``TCP_QUICKACK``, nothing that would hide or cause a stall on the
server's side of the connection.

Latency runs from just before ``sendall`` to the arrival of the last body
byte. Bodies are kept and checked after the timed phases, so checking
costs the closed loop no think time.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from check import CheckError, check_response
from workloads import Request, Stream

#: Longest wait for one reply before the request counts as a transport error.
REPLY_TIMEOUT_S = 30.0


@dataclass
class Sample:
    request: Request
    latency_s: float
    status: int  # 0 = transport error
    body: bytes
    response_bytes: int = 0  # head + body


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal response reader."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        #: Every sample sent on this connection, in order (for the checker).
        self.samples: list[Sample] = []

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self._port), timeout=REPLY_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer.clear()
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def send(self, request: Request) -> Sample:
        """One round trip; a transport error closes the connection."""
        if self._sock is None:
            self._sock = self._connect()
        start = time.perf_counter()
        try:
            self._sock.sendall(request.wire)
            status, body, size = self._read_response()
        except (OSError, ValueError) as error:
            self.close()
            status, body, size = 0, f"{type(error).__name__}: {error}".encode("utf-8"), 0
        sample = Sample(request, time.perf_counter() - start, status, body, size)
        self.samples.append(sample)
        return sample

    def _read_response(self) -> tuple[int, bytes, int]:
        buffer = self._buffer
        while (head_end := buffer.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(buffer[:head_end]).lower()
        status = int(head[9:12])
        marker = head.find(b"content-length:")
        if marker < 0:
            raise ValueError("response without Content-Length")
        line_end = head.find(b"\r\n", marker)
        length = int(head[marker + 15 : line_end if line_end >= 0 else len(head)])
        total = head_end + 4 + length
        while len(buffer) < total:
            self._fill()
        body = bytes(buffer[head_end + 4 : total])
        del buffer[:total]
        return status, body, total

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk


class Cursor:
    """A client's position in its stream."""

    def __init__(self, stream: Stream, offset: int = 0, step: int = 1) -> None:
        self._stream = stream
        self._index = offset
        self._step = step

    def next(self) -> Request | None:
        requests = self._stream.requests
        if self._index >= len(requests):
            if not self._stream.cyclic:
                return None
            self._index %= len(requests)
        request = requests[self._index]
        self._index += self._step
        return request


@dataclass
class Segment:
    """What the clients of one timed segment saw."""

    samples: list[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: A non-repeating stream ran out before the segment's time was up.
    dry: bool = False

    def latency_ms(self, percentile: float) -> float:
        return float(np.percentile([s.latency_s for s in self.samples], percentile)) * 1000

    @property
    def rps(self) -> float:
        return sum(1 for s in self.samples if s.status == 200) / self.elapsed_s


def run_segment(
    clients: list[tuple[Connection, Cursor]], seconds: float, min_requests: int = 0
) -> Segment:
    """Drive every client for ``seconds`` (and at least ``min_requests`` each)."""
    segment = Segment()
    barrier = threading.Barrier(len(clients) + 1)
    ends: list[float] = []

    def drive(connection: Connection, cursor: Cursor) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds
        sent = 0
        samples = []
        while sent < min_requests or time.perf_counter() < deadline:
            request = cursor.next()
            if request is None:
                segment.dry = True
                break
            samples.append(connection.send(request))
            sent += 1
        ends.append(time.perf_counter())
        segment.samples.extend(samples)

    threads = [
        threading.Thread(target=drive, args=client, name=f"client-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    segment.elapsed_s = max(ends) - start
    return segment


def check_connection(connection: Connection) -> list[str]:
    """Check every response of one connection, in order; returns the failures."""
    failures = []
    versions = (0, 0)
    for index, sample in enumerate(connection.samples):
        try:
            if sample.status == 0:
                raise CheckError(f"transport error: {sample.body.decode('utf-8')}")
            versions = check_response(sample.request, sample.status, sample.body, versions)
        except CheckError as error:
            failures.append(f"#{index} {sample.request.endpoint}: {error}")
    return failures
