"""Layered serving runtime: registry → runtime → cached read path.

``registry``
    Immutable, versioned artifact records (weekly graphs, daily preference
    indexes) — the offline → online handoff contract.
``runtime``
    :class:`ServingRuntime` owns the active artifact set and performs
    atomic hot-swaps on refresh.
``cache``
    Version-keyed read-through LRU for k-hop expansions.
``frontend``
    :class:`QueryFrontend` — thread-pooled HTTP query surface with
    admission control, backpressure and graceful drain.
"""

import importlib

from repro.serving.cache import VersionedLRUCache
from repro.serving.registry import (
    KIND_GRAPH,
    KIND_PREFERENCES,
    ArtifactRecord,
    ArtifactRegistry,
)
from repro.serving.runtime import ActiveArtifacts, ServingRuntime

# The front end wraps the API facade, a layer above this package's runtime:
# its names resolve on first use (PEP 562).
_LAZY = {"QueryFrontend": "frontend", "AdmissionController": "frontend"}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "VersionedLRUCache",
    "ArtifactRecord",
    "ArtifactRegistry",
    "KIND_GRAPH",
    "KIND_PREFERENCES",
    "ActiveArtifacts",
    "ServingRuntime",
    "AdmissionController",
    "QueryFrontend",
]
