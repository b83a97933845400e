"""The process every stage that trains or builds runs in.

The serving process orchestrates — checkpoints, fault seams, resume,
publish, open, activate — and never trains: the skip-gram, the semantic
pretrain, the ALPC fit, the ensemble fit and the daily preference build
each run here as one module-level function of :mod:`repro.trmp.stages`
(the daily build: :mod:`repro.trmp.daily`), so their heaps live and die
with this process, not the server's.

It is a plain ``python -c`` child with its own stdin / stdout pipes that
imports this module and calls :func:`main`; it starts on four ``repro``
modules and imports the stage's module with its first request. Each
request is one length-prefixed pickle of ``(function, arguments)``; each
reply one pickle of what the function returned. The worker serves requests
until its stdin ends, so one worker can pretrain and then fit ALPC, and a
worker whose parent died exits at its next read. Not a fork (refreshes run
beside listener threads) and not ``multiprocessing`` spawn (it re-imports
the caller's ``__main__``, and scripts without a main guard would re-run).
Any failure — non-zero exit, a kill, a truncated or invalid reply — is one
:class:`~repro.errors.StageWorkerError`; leaving the ``with`` block kills
and reaps the child, so none outlives the stage.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import subprocess
import sys
import tempfile
import threading

import numpy as np

from repro.errors import StageWorkerError

_LENGTH = struct.Struct("<Q")
#: The worker's program: import this module, serve until stdin ends.
_WORKER_MAIN = "import sys; from repro.trmp.stage_worker import main; sys.exit(main())"
_STDERR_TAIL_BYTES = 2000


class _Pickler(pickle.Pickler):
    """Pickles a plain numpy dtype as ``np.dtype(str)``.

    numpy pickles a dtype as a private copy, so an unpickled array carries
    a dtype object no other array shares. The checkpoint digests pickle a
    stage's payload, and pickle memoises objects by identity: a payload
    mixing such an array with one made in this process would pickle to
    other bytes than the same payload built in one process, with equal
    numbers. ``np.dtype("<f8")`` unpickles to the process's own descriptor,
    so both sides of the pipe hold arrays the way an in-process run does.
    """

    def reducer_override(self, obj):
        if (
            isinstance(obj, np.dtype)
            and obj.names is None
            and obj.subdtype is None
            and np.dtype(obj.str) == obj
        ):
            return np.dtype, (obj.str,)
        return NotImplemented


def _frame(payload: object) -> bytes:
    """One message: an 8-byte length, then the pickle."""
    buffer = io.BytesIO()
    buffer.write(bytes(_LENGTH.size))
    _Pickler(buffer, pickle.HIGHEST_PROTOCOL).dump(payload)
    data = buffer.getbuffer()
    _LENGTH.pack_into(data, 0, len(data) - _LENGTH.size)
    return bytes(data)


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


def reject(found: str, expected: str) -> StageWorkerError:
    """The error for a reply that failed its check."""
    return StageWorkerError(f"stage worker replied with {found}; expected {expected}")


def checked_matrix(
    value: object, shape: tuple[int, ...], what: str, dtype=np.float64
) -> np.ndarray:
    """``value`` if it is a finite ``dtype`` array of ``shape``."""
    if not (
        isinstance(value, np.ndarray)
        and value.shape == shape
        and value.dtype == dtype
        and np.isfinite(value).all()
    ):
        found = (
            f"a {value.dtype} {value.shape} array" if isinstance(value, np.ndarray)
            else type(value).__name__
        )
        raise reject(f"{found} for {what}", f"finite {np.dtype(dtype)} {shape}")
    return value


def checked_reply(reply: object) -> tuple[object, dict[str, float]]:
    """Split a reply into ``(payload, {step: busy seconds})``."""
    if not (
        isinstance(reply, tuple)
        and len(reply) == 2
        and isinstance(reply[1], dict)
        and all(
            isinstance(name, str) and isinstance(seconds, float) and seconds >= 0
            for name, seconds in reply[1].items()
        )
    ):
        raise reject(type(reply).__name__, "(payload, {step: seconds})")
    return reply


class StageWorker:
    """Parent-side handle: start early, ``submit`` a stage, ``result``."""

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
            [sys.executable, "-c", _WORKER_MAIN],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=env,
        )
        self._sender: threading.Thread | None = None

    @property
    def pid(self) -> int:
        return self._process.pid

    def __enter__(self) -> "StageWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        process = self._process
        process.kill()  # a no-op once the worker has been reaped
        process.wait()
        self._join_sender()  # its write has ended: the reader is gone
        for stream in (process.stdin, process.stdout, self._stderr):
            try:
                stream.close()
            except OSError:  # input a dead worker never read, still buffered
                pass

    def submit(self, function, *arguments) -> None:
        """Hand the worker a stage without waiting for it to read it.

        The worker may still be importing, and a pipe holds 64 KiB: the
        write happens on a thread so that the caller's own work starts now.
        """
        self._join_sender()
        self._sender = threading.Thread(
            target=self._write, args=(_frame((function, arguments)),),
            name="stage-worker-send",
        )
        self._sender.start()

    def _join_sender(self) -> None:
        if self._sender is not None:
            self._sender.join()
            self._sender = None

    def _write(self, message: bytes) -> None:
        stdin = self._process.stdin
        try:
            stdin.write(message)
            stdin.flush()
        except OSError:
            pass  # the worker died before reading; ``result`` reports how

    def result(self) -> tuple[object, dict[str, float]]:
        """Block until the worker replies: ``(payload, {step: seconds})``."""
        try:
            reply = _read_frame(self._process.stdout)
        except EOFError as error:
            code = self._process.wait()
            self._stderr.seek(0, os.SEEK_END)
            self._stderr.seek(max(0, self._stderr.tell() - _STDERR_TAIL_BYTES))
            tail = self._stderr.read().decode("utf-8", "replace").strip()
            raise StageWorkerError(
                f"stage worker exited with code {code} after {error} of reply; "
                f"stderr: {tail or '(empty)'}"
            ) from None
        return checked_reply(reply)

    def run(self, function, *arguments) -> tuple[object, dict[str, float]]:
        """``submit`` then ``result``."""
        self.submit(function, *arguments)
        return self.result()


def main() -> int:
    """Worker side: serve requests from stdin until it ends."""
    # Keep the reply pipe to ourselves: anything a library prints goes to
    # stderr instead of into the middle of a pickle.
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    while True:
        try:
            function, arguments = _read_frame(sys.stdin.buffer)
        except EOFError:
            return 0  # the parent is done with us, or gone
        reply.write(_frame(function(*arguments)))
        reply.flush()
