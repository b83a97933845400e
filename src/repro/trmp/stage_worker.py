"""The weekly refresh's one worker process: skip-gram beside the pretrain.

``E^Co`` and ``E^Se`` share no state until the candidate stage (§III-B.1),
so at week 0 :class:`~repro.trmp.pipeline.TRMPipeline` fits the skip-gram
here, on the second core, while the parent pretrains the semantic encoder.
The worker runs the same :func:`~repro.embeddings.skipgram.fit_cooccurrence`
the inline path calls, seeded by its config alone: same bytes either way.

It is a plain ``python -m`` child with its own stdin / stdout pipes, one
length-prefixed pickle each way. Not a fork (later refreshes run beside
listener threads) and not ``multiprocessing`` spawn (it re-imports the
caller's ``__main__``, and scripts without a main guard would re-run).
Any failure — non-zero exit, a kill, a truncated or invalid reply — is one
:class:`~repro.errors.StageWorkerError`; leaving the ``with`` block kills
and reaps the child, so none outlives the stage.
"""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.embeddings.skipgram import SkipGramConfig, fit_cooccurrence
from repro.errors import StageWorkerError

_LENGTH = struct.Struct("<Q")
_STDERR_TAIL_BYTES = 2000


def _frame(payload: object) -> bytes:
    """One message: an 8-byte length, then the pickle."""
    data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(data)) + data


def _read_frame(stream) -> object:
    """Read one message; ``EOFError`` when the stream ends inside it."""
    header = stream.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        raise EOFError(f"{len(header)} of {_LENGTH.size} header bytes")
    (size,) = _LENGTH.unpack(header)
    data = stream.read(size)
    if len(data) < size:
        raise EOFError(f"{len(data)} of {size} bytes")
    return pickle.loads(data)


def checked_embedding(reply: object, shape: tuple[int, int]) -> tuple[np.ndarray, float]:
    """Validate a worker reply ``(E^Co, busy seconds)`` before it is used."""
    matrix = reply[0] if isinstance(reply, tuple) and len(reply) == 2 else None
    if not (
        isinstance(matrix, np.ndarray)
        and matrix.shape == shape
        and matrix.dtype == np.float64
        and np.isfinite(matrix).all()
    ):
        found = (
            f"a {matrix.dtype} {matrix.shape} matrix" if isinstance(matrix, np.ndarray)
            else type(reply).__name__
        )
        raise StageWorkerError(
            f"stage worker replied with {found}; expected (finite float64 {shape}, seconds)"
        )
    # Re-wrapped under this process's own float64 descriptor: an unpickled
    # array carries a private dtype object, and the stage's checkpoint
    # digest pickles it beside another array with dtypes memoised by
    # identity — the bytes would differ from an inline run's.
    return np.asarray(matrix, dtype=np.float64), float(reply[1])


class StageWorker:
    """Parent-side handle: start early, ``send`` the inputs, ``receive``."""

    def __init__(self) -> None:
        # The worker must import what the parent imports, including paths
        # a script added to ``sys.path`` at run time.
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path or os.getcwd() for path in sys.path),
        )
        # stderr goes to a file, not a pipe: nothing reads it until the
        # worker is gone, and a full pipe would block it.
        self._stderr = tempfile.TemporaryFile()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.trmp.stage_worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env,
        )
        self._shape = (0, 0)
        self._sender: threading.Thread | None = None

    def __enter__(self) -> "StageWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        process = self._process
        process.kill()  # a no-op once the worker has been reaped
        process.wait()
        if self._sender is not None:
            self._sender.join()  # its write has ended: the reader is gone
        for stream in (process.stdin, process.stdout, self._stderr):
            try:
                stream.close()
            except OSError:  # input a dead worker never read, still buffered
                pass

    def send(
        self, num_items: int, config: SkipGramConfig, sequences: list[list[int]]
    ) -> None:
        """Hand the worker its inputs without waiting for it to read them.

        The worker may still be importing, and a pipe holds 64 KiB: the
        write happens on a thread so that the caller's own stage starts now.
        """
        self._shape = (num_items, config.dim)
        self._sender = threading.Thread(
            target=self._write, args=(_frame((num_items, config, sequences)),),
            name="stage-worker-send",
        )
        self._sender.start()

    def _write(self, message: bytes) -> None:
        stdin = self._process.stdin
        try:
            stdin.write(message)
            stdin.close()
        except OSError:
            pass  # the worker died before reading; ``receive`` reports how

    def receive(self) -> tuple[np.ndarray, float]:
        """Block until the worker replies; ``(E^Co, its busy seconds)``."""
        reply, truncated = None, ""
        try:
            reply = _read_frame(self._process.stdout)
        except EOFError as error:
            truncated = f" after {error} of reply"
        code = self._process.wait()
        if code != 0 or truncated:
            self._stderr.seek(0, os.SEEK_END)
            self._stderr.seek(max(0, self._stderr.tell() - _STDERR_TAIL_BYTES))
            tail = self._stderr.read().decode("utf-8", "replace").strip()
            raise StageWorkerError(
                f"stage worker exited with code {code}{truncated}; "
                f"stderr: {tail or '(empty)'}"
            )
        return checked_embedding(reply, self._shape)


def main() -> int:
    """Worker side: one request in on stdin, one reply out on stdout."""
    # Keep the reply pipe to ourselves: anything a library prints goes to
    # stderr instead of into the middle of a pickle.
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    arguments = _read_frame(sys.stdin.buffer)
    start = time.perf_counter()
    matrix = fit_cooccurrence(*arguments)
    busy_seconds = time.perf_counter() - start
    reply.write(_frame((matrix, busy_seconds)))
    reply.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
