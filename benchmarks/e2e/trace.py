"""Span recorder for the traced pass: class-level wrappers, no edits in src/.

The traced pass runs the stack and one closed-loop client in this process.
:meth:`Tracer.install` replaces the public entry point of each layer, on
its class (or module, for ``k_hop_expansion``), with a wrapper that
records a span: name, start, end, the span that caused it, and the
request id. :meth:`Tracer.uninstall` puts the originals back and proves it.
Spans stay in memory until :meth:`Tracer.write`.

The client opens the root span of a request around the socket round trip;
the server thread's ``dispatch`` span adopts that root as its parent. That
needs no propagation because exactly one request is in flight. Refreshes
run on the operator thread under their own ``daily`` root.

A layer's self time is its span's duration minus its children's, so the
self times of one request add up to its root span (:func:`self_times`
asserts it).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro.online.reasoning as reasoning_module
from repro.online.api import ApiResponse, EGLService
from repro.online.reasoning import GraphReasoner
from repro.online.system import EGLSystem
from repro.online.targeting import UserTargeting
from repro.preference.store import PreferenceStore
from repro.serving.cache import VersionedLRUCache
from repro.serving.frontend import AdmissionController, QueryFrontend
from repro.serving.registry import ArtifactRegistry
from repro.serving.runtime import ServingRuntime
from repro.text.sequence_extractor import EntitySequenceExtractor


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _khop_counts(result, args, kwargs) -> dict:
    return {"khop.nodes": len(result.scores)}


def _topk_counts(result, args, kwargs) -> dict:
    store, entity_sets = args[0], args[1]
    if entity_sets and not isinstance(entity_sets[0], (list, tuple)):
        entity_sets = [entity_sets]  # top_users_for_entities takes one set
    union = {entity for entity_set in entity_sets for entity in entity_set}
    return {"preference.users_scored": len(store.user_matrix) * len(union)}


#: (owner, attribute, span name, counts from the call). ``try_admit`` opens no
#: span of its own (it is part of ``dispatch``): the time a request spends in
#: it, queue wait included, is recorded as a count on the ``dispatch`` span.
QUEUE_WAIT = "frontend.queue_wait_us"
WRAPPED = (
    (QueryFrontend, "dispatch", "dispatch", None),
    (AdmissionController, "try_admit", None, None),
    (ApiResponse, "to_dict", "to_dict", None),
    (EGLService, "expand", "api", None),
    (EGLService, "target", "api", None),
    (EGLService, "target_batch", "api", None),
    (ServingRuntime, "expand", "runtime", None),
    (ServingRuntime, "target", "runtime", None),
    (ServingRuntime, "target_batch", "runtime", None),
    (VersionedLRUCache, "get", "cache.get", None),
    (VersionedLRUCache, "put", "cache.put", None),
    (GraphReasoner, "expand", "reasoner", None),
    (reasoning_module, "k_hop_expansion", "khop", _khop_counts),
    (UserTargeting, "target", "targeting", None),
    (UserTargeting, "target_batch", "targeting", None),
    (PreferenceStore, "top_users_for_entities", "preference.topk", _topk_counts),
    (PreferenceStore, "top_users_for_entity_sets", "preference.topk", _topk_counts),
    (EGLSystem, "daily_preference_refresh", "daily", None),
    (EntitySequenceExtractor, "extract_sequences", "daily.extract", None),
    (PreferenceStore, "build", "daily.build", None),
    (ArtifactRegistry, "publish_preferences", "daily.publish", None),
    (ArtifactRegistry, "open_preferences", "daily.open", None),
    (ServingRuntime, "activate_preferences", "daily.activate", None),
)

_SPAN_NAMES = {"http"} | {name for _, _, name, _ in WRAPPED if name is not None}

#: The span a server thread's first span hangs under: the client's root.
ADOPTS_CLIENT_ROOT = "dispatch"
#: Roots that are not requests; each gets its own id.
OPERATOR_ROOT = "daily"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_root: tuple[int, str] | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._operator_roots = itertools.count()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _wrap(self, original, name: str | None, counts_of):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if name is None:
                start = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    if stack:
                        stack[-1][3][QUEUE_WAIT] = (perf() - start) * 1e6
            if stack:
                parent, parent_name, request, _ = stack[-1]
                if parent_name == name:
                    # One layer calling its own entry points is one span.
                    return original(*args, **kwargs)
            elif name == ADOPTS_CLIENT_ROOT and tracer._client_root is not None:
                parent, request = tracer._client_root
            elif name == OPERATOR_ROOT:
                parent, request = None, f"daily-{next(tracer._operator_roots)}"
            else:
                parent, request = None, None
            span_id = next(tracer._ids)
            counts: dict = {}
            stack.append((span_id, name, request, counts))
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, request, counts))
            if counts_of is not None:
                counts.update(counts_of(result, args, kwargs))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attribute, name, counts_of in WRAPPED:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counts_of))

    def uninstall(self) -> None:
        """Restore every original; raise if any wrapper is still in place."""
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        for owner, attribute, original in self._originals:
            if vars(owner)[attribute] is not original:
                raise AssertionError(f"{owner.__name__}.{attribute} is still wrapped")
        self._originals.clear()

    # ------------------------------------------------------------------
    def request(self, request_id: str, send):
        """Run ``send()`` (one socket round trip) as the root span ``http``."""
        span_id = next(self._ids)
        self._client_root = (span_id, request_id)
        start = time.perf_counter()
        try:
            return send()
        finally:
            end = time.perf_counter()
            self._client_root = None
            self.spans.append(Span(span_id, "http", start, end, None, request_id))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span.start for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                row = {
                    "id": span.id,
                    "name": span.name,
                    "start_us": round((span.start - origin) * 1e6, 3),
                    "end_us": round((span.end - origin) * 1e6, 3),
                    "parent": span.parent,
                    "request": span.request,
                }
                if span.counts:
                    row["counts"] = span.counts
                handle.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per request: layer name → self seconds (plus that layer's counts).

    Asserts that every child lies inside its parent and that a request's
    self times add up to its root span.
    """
    by_id = {span.id: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        if span.start < parent.start or span.end > parent.end:
            raise AssertionError(f"span {span.name} leaves its parent {parent.name}")
        children[span.parent] += span.duration
    requests: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    roots: dict[str, float] = {}
    for span in spans:
        if span.request is None:
            continue
        layers = requests[span.request]
        layers[span.name] += span.duration - children[span.id]
        layers["inclusive:" + span.name] += span.duration
        for key, value in span.counts.items():
            layers[key] += value
        if span.parent is None:
            roots[span.request] = span.duration
    for request_id, layers in requests.items():
        total = sum(v for k, v in layers.items() if k in _SPAN_NAMES)
        if abs(total - roots[request_id]) > 1e-9 + 1e-9 * roots[request_id]:
            raise AssertionError(
                f"self times of {request_id} sum to {total}, root is {roots[request_id]}"
            )
    return requests

