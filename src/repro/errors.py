"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from :class:`ReproError`
so callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError):
    """Backward pass was requested in an invalid state."""


class VocabularyError(ReproError):
    """A token or entity was not found in a vocabulary/dictionary."""


class GraphError(ReproError):
    """An entity-graph operation failed (unknown node, bad edge, ...)."""


class StorageError(ReproError):
    """The graph storage layer hit corrupted or inconsistent data."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class NotFittedError(ReproError):
    """A model/pipeline was used before being trained or built."""


class DriftGateError(ReproError):
    """A hot-swap was refused because the candidate artifact is degenerate
    (an empty graph, constant preference scores); serving continues on the
    old generation."""


class DeadlineExceededError(ReproError):
    """A request's deadline expired before (or while) it was served; the
    work was shed rather than finished late."""


class CheckpointError(ReproError):
    """A refresh checkpoint could not be written, read back, or failed its
    content-digest validation."""


class CorruptArtifactError(StorageError):
    """A published artifact failed its checksum/shape validation on open;
    the file is quarantined rather than served."""


class StageWorkerError(ReproError):
    """A refresh stage running in a worker process failed: the worker
    exited non-zero, was killed, or sent a truncated or invalid reply. The
    stage is not checkpointed; a resumed run recomputes it."""
