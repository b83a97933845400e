"""Crash-safe file primitives shared by the registry and checkpoint store.

A torn write must never be observable: every durable artifact in this
package is produced by writing a sibling temp file, flushing it to disk
(``fsync``), and atomically renaming it over the destination
(``os.replace``). A crash at any point leaves either the old complete file
or the new complete file — never a prefix. Content digests (SHA-256) ride
alongside, and :func:`read_proven_array` is the one way back in: it proves
an array's bytes against its digest from the buffer it then serves.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import pickle
from pathlib import Path

import numpy as np

from repro.errors import CorruptArtifactError

#: Pickle protocol pinned so content digests are stable across sessions.
PICKLE_PROTOCOL = 4

#: Byte boundary a proven array's file buffer starts on: with numpy's
#: header padded to a multiple of it, the data does too.
_BUFFER_ALIGN = 64
#: Bytes that hold any version-1.0 ``.npy`` header (the version
#: :func:`atomic_write_array` writes).
_HEADER_BYTES = 1 << 16


def sha256_hex(data: bytes) -> str:
    """Hex digest of ``data`` — the package-wide content-address scheme."""
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    """SHA-256 of a file's bytes, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def pickle_bytes(obj: object) -> bytes:
    """Deterministic-enough serialization for checkpoint digests.

    Pickle of numpy arrays / plain dataclasses is byte-stable for equal
    content under a pinned protocol, which is what the idempotency checks
    compare.
    """
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def unpickle_bytes(data: bytes) -> object:
    return pickle.loads(data)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via temp file + fsync + rename.

    The temp file lives next to the destination (same filesystem, so the
    rename is atomic) and is cleaned up on failure. The containing
    directory is fsynced afterwards so the rename itself is durable.
    """
    return _write_atomically(Path(path), (data,))


def atomic_write_text(path: str | Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_array(path: str | Path, array: np.ndarray) -> str:
    """Write ``array`` as a ``.npy`` file atomically; returns its SHA-256.

    The file is byte-identical to ``np.save(path, np.ascontiguousarray(array))``:
    numpy's own version-1.0 header, then the C-order buffer handed to the
    file through a ``memoryview``, by the same temp + fsync + rename path
    as :func:`atomic_write_bytes`. The digest is taken over those same
    views, so a C-contiguous array is never copied: the writer holds the
    header and nothing else, whatever the array's size.
    """
    array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array)
    )
    chunks = (header.getvalue(), memoryview(array.reshape(-1).view(np.uint8)))
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    _write_atomically(Path(path), chunks)
    return digest.hexdigest()


def read_proven_array(path: str | Path, checksum: str | None) -> np.ndarray:
    """Read a ``.npy`` file into process memory and return it read-only,
    once its SHA-256 — taken over that same buffer — equals ``checksum``.

    The bytes proven are the bytes served, and after the read the array
    owns them: truncating, unlinking or rewriting the file changes nothing
    for it. A missing file, an absent checksum, a mismatch or an
    unparseable header raises
    :class:`~repro.errors.CorruptArtifactError` naming the file.
    """
    path = Path(path)
    if not checksum:
        raise CorruptArtifactError(f"no checksum recorded for {path}")
    try:
        with open(path, "rb", buffering=0) as handle:
            size = os.fstat(handle.fileno()).st_size
            raw = np.empty(size + _BUFFER_ALIGN, dtype=np.uint8)
            skip = -raw.ctypes.data % _BUFFER_ALIGN
            buffer = raw[skip : skip + size]
            view, filled = memoryview(buffer), 0
            while filled < size and (read := handle.readinto(view[filled:])):
                filled += read
    except OSError as error:
        raise CorruptArtifactError(f"array file unreadable: {path}: {error}") from error
    if filled != size or hashlib.sha256(buffer).hexdigest() != checksum:
        raise CorruptArtifactError(f"checksum mismatch for {path}")
    try:
        header = io.BytesIO(view[:_HEADER_BYTES])
        if np.lib.format.read_magic(header) != (1, 0):
            raise ValueError("not a version-1.0 .npy header")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(header)
        data = buffer[header.tell() :]
        if dtype.hasobject or len(data) != dtype.itemsize * math.prod(shape):
            raise ValueError("data does not match the header")
        array = data.view(dtype).reshape(shape, order="F" if fortran_order else "C")
    except ValueError as error:
        raise CorruptArtifactError(f"array file malformed: {path}: {error}") from error
    array.flags.writeable = False
    return array


def _write_atomically(path: Path, chunks: tuple) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry; best-effort on platforms that refuse."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
