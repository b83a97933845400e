"""repro.resilience — fault tolerance for the offline/online loop.

The paper's system refreshes artifacts weekly/daily underneath an
always-on targeting service; this package holds the dependency-free
primitives that keep both sides alive when infrastructure misbehaves:

``deadline``
    :class:`Deadline` — absolute per-request budgets propagated through
    the serving read path; expired work is shed, not finished late.
``checkpoint``
    :class:`CheckpointStore` — per-stage refresh checkpoints under a run
    id, digest-validated, atomic on disk; powers ``weekly_refresh``
    resume.
``faults``
    :class:`FaultInjector` — scripted failures on exact call numbers at
    named seams (registry, checkpoints, pipeline stages) for the chaos
    suite.
``atomic``
    temp-file + fsync + rename writes and SHA-256 content digests, shared
    by the registry and checkpoint store; :func:`atomic_write_array`
    streams a ``.npy`` artifact to disk without serialising it in memory,
    and :func:`read_proven_array` reads one back into memory, proving its
    checksum from the buffer it serves.

There is no degraded mode: no retry, no circuit breaker and no fallback
generation. A failing call raises its own error once, answered with its
own code, and
serving stays on the generation it had until an activation check passes.
"""

from repro.resilience.atomic import (
    atomic_write_array,
    atomic_write_bytes,
    atomic_write_text,
    file_digest,
    pickle_bytes,
    read_proven_array,
    sha256_hex,
)
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultInjector, InjectedCrash, InjectedFault

__all__ = [
    "atomic_write_array",
    "atomic_write_bytes",
    "atomic_write_text",
    "file_digest",
    "pickle_bytes",
    "read_proven_array",
    "sha256_hex",
    "CheckpointStore",
    "Deadline",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
]
