"""Crash-safe file primitives shared by the registry and checkpoint store.

A torn write must never be observable: every durable artifact in this
package is produced by writing a sibling temp file, flushing it to disk
(``fsync``), and atomically renaming it over the destination
(``os.replace``). A crash at any point leaves either the old complete file
or the new complete file — never a prefix. Content digests (SHA-256) ride
alongside so readers can prove the bytes they opened are the bytes that
were published.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from pathlib import Path

import numpy as np

#: Pickle protocol pinned so content digests are stable across sessions.
PICKLE_PROTOCOL = 4


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
