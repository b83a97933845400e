"""ServingRuntime — owns the active artifact set and the online read path.

The paper's online stage answers marketer requests "in milliseconds" while
the offline producers republish artifacts weekly (entity graph) and daily
(preference index). This layer makes that safe:

* the active artifacts live in one immutable :class:`ActiveArtifacts`
  value; a refresh builds the *complete* next value and installs it with a
  single reference assignment (atomic under the GIL). A request calls
  :meth:`acquire` once and passes that value to :meth:`expand` /
  :meth:`target` / :meth:`target_batch`, so it is answered by, and labelled
  with, one generation while new requests see the new one — no
  half-swapped state is ever observable;
* expansions are answered through a version-keyed read-through LRU cache
  (:class:`~repro.serving.cache.VersionedLRUCache`); because the version is
  part of the key, a cached expansion can never be served for a graph that
  did not produce it;
* every activation that has a predecessor first measures the candidate
  against the active artifact and produces a
  :class:`~repro.obs.drift.DriftReport`; a critical one (an empty graph,
  constant preference scores) *refuses* the swap
  (:class:`~repro.errors.DriftGateError`) and serving continues on the old
  generation — the report is still recorded and forwarded, so the refusal
  is observable everywhere a successful swap would be.

Faults (this layer's fault-tolerance contract — there is no degraded mode):

* **a failing activation raises** — a refused incoming artifact
  propagates to the caller, and serving stays on the generation it had,
  because the swap is one assignment made after the check; the next
  activation is judged on its own artifact alone (a corrupt one never
  gets here: the registry's open proves every array);
* **a failing request raises** — its error reaches the API edge, which
  answers it with its own envelope code; nothing else changes state;
* **deadlines** — ``expand``/``target*`` accept a per-request
  :class:`~repro.resilience.Deadline`; an expired request raises
  :class:`~repro.errors.DeadlineExceededError` (counted once, at the
  front end, under its code), never finished late;
* **rollback** — :meth:`ServingRuntime.rollback` reinstates the previous
  generation per artifact kind (the manual lever when a bad artifact got
  past every gate).

Every generation's arrays are in process memory, proven at open. What the
runtime retains besides the active generation is kind-scoped: each
rollback slot holds only its own kind's fields. A generation leaves memory
when its last reference drops — the active value, the rollback slot, or an
in-flight request's :class:`ActiveArtifacts` — so nothing counts readers.

The serving process pins glibc's mmap threshold at its default
(``mallopt(M_MMAP_THRESHOLD)``, once per process), so the score arrays
every request allocates and frees, and a replaced generation's arrays, go
back to the operating system instead of piling up in the heap.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from collections import deque
from dataclasses import dataclass, replace

from repro.errors import ConfigError, DriftGateError, NotFittedError
from repro.obs import Observability
from repro.obs.context import phase
from repro.obs.drift import DriftReport, graph_report, preference_report
from repro.online.reasoning import ExpansionView, GraphReasoner
from repro.online.targeting import TargetingResult, UserTargeting
from repro.preference.store import PreferenceStore
from repro.resilience import Deadline
from repro.serving.cache import VersionedLRUCache

#: How many hot-swap events the runtime keeps for post-hoc inspection.
SWAP_EVENT_CAPACITY = 64

#: Each artifact kind's fields of :class:`ActiveArtifacts`: its version,
#: its tag, then what serves it. Activation and rollback of a kind move
#: exactly these.
_FIELDS = {
    "graph": ("graph_version", "graph_tag", "reasoner"),
    "preferences": (
        "preference_version", "preference_tag", "preference_store", "targeting",
    ),
}

#: glibc's ``mallopt`` parameter number for ``M_MMAP_THRESHOLD``, and the
#: threshold's default (128 KiB).
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


@functools.cache
def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default, once per process.

    glibc serves an allocation of at least the threshold with its own
    mapping, returned to the system on ``free``, but raises the threshold
    to the size of every such block freed: after the first few, the
    160-640 KB score arrays of each request come from the heap arenas and
    stay there; a replaced generation's 2-4 MB arrays, freed, would raise
    it first. Setting the threshold explicitly turns that adjustment off.
    Not through ``MALLOC_MMAP_THRESHOLD_``: the stage workers inherit the
    environment, and training slows under the pin. Skipped where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


@dataclass(frozen=True)
class ActiveArtifacts:
    """The immutable artifact set one request generation serves from."""

    graph_version: int | None = None
    graph_tag: str | None = None
    reasoner: GraphReasoner | None = None
    preference_version: int | None = None
    preference_tag: str | None = None
    preference_store: PreferenceStore | None = None
    targeting: UserTargeting | None = None

    def require_reasoner(self) -> GraphReasoner:
        if self.reasoner is None:
            raise NotFittedError("no graph artifact activated; run weekly_refresh first")
        return self.reasoner

    def require_targeting(self) -> UserTargeting:
        if self.targeting is None:
            raise NotFittedError(
                "daily_preference_refresh must run before targeting users"
            )
        return self.targeting

    def only(self, kind: str) -> "ActiveArtifacts":
        """This generation's ``kind`` fields alone (a rollback slot)."""
        return ActiveArtifacts(**{name: getattr(self, name) for name in _FIELDS[kind]})


def _drift_report(
    kind: str, old: ActiveArtifacts, new: ActiveArtifacts, at: float
) -> DriftReport:
    """The activation check: ``new``'s ``kind`` generation against ``old``'s."""
    versions = getattr(old, _FIELDS[kind][0]), getattr(new, _FIELDS[kind][0]), at
    if kind == "graph":
        return graph_report(old.reasoner.graph, new.reasoner.graph, *versions)
    return preference_report(old.preference_store, new.preference_store, *versions)


class ServingRuntime:
    """Hot-swappable serving layer between offline artifacts and the API."""

    def __init__(
        self,
        cache_size: int = 256,
        obs: Observability | None = None,
    ) -> None:
        _pin_mmap_threshold()
        self.obs = obs or Observability()
        self._clock = self.obs.clock
        self._perf = self._clock.perf  # bound once: called twice per request
        self._active = ActiveArtifacts()
        # Serializes activations/rollbacks against each other: the swap is
        # a read-modify-write of ``_active`` (build next value from
        # previous, assign), and two concurrent activations would silently
        # drop one artifact. The *read* path never takes this lock —
        # ``acquire()`` stays a single atomic reference load, which is
        # what makes hot-swap-under-load safe: every in-flight request
        # serves wholly from the snapshot it acquired.
        self._swap_lock = threading.Lock()
        self._cache = VersionedLRUCache(cache_size)
        self._cache.register_metrics(self.obs.metrics)
        self._swap_count = 0
        self._swap_events: deque[dict] = deque(maxlen=SWAP_EVENT_CAPACITY)
        self._started_at = self._clock.time()
        #: The latest drift report per artifact kind, for ``health()``.
        self._last_drift: dict[str, DriftReport] = {}
        self._log = self.obs.logger.child("runtime")
        # Previous generations, per artifact kind, for explicit rollback.
        # Each slot holds only its own kind's fields, so neither pins the
        # other kind's generation.
        self._previous: dict[str, ActiveArtifacts] = {}
        #: Optional callback invoked with every DriftReport (accepted or
        #: refused); EGLSystem uses it to persist reports in the registry,
        #: including for direct activations.
        self.on_drift_report = None
        metrics = self.obs.metrics

        def per_kind(make, name: str, help: str) -> dict:
            return {kind: make(name, help=help, kind=kind) for kind in _FIELDS}

        self._version_gauges = per_kind(
            metrics.gauge, "serving_active_version", "Active artifact version"
        )
        self._swap_counters = per_kind(
            metrics.counter, "serving_hot_swaps_total", "Artifact hot-swaps performed"
        )
        self._reject_counters = per_kind(
            metrics.counter, "serving_swap_rejections_total",
            "Hot-swaps refused by the activation check",
        )
        self._rollback_counters = per_kind(
            metrics.counter, "serving_rollbacks_total",
            "Explicit rollbacks to the previous generation",
        )
        # Bound ``observe`` methods — skips a handle-attribute lookup per
        # request on the read path.
        self._observe_expand_miss = metrics.histogram(
            "serving_expand_seconds",
            help="k-hop expansion latency on the runtime read path "
                 "(computed expansions only; cache hits are not sampled)",
            outcome="computed",
        ).observe
        self._observe_target = metrics.histogram(
            "serving_target_seconds", help="User-targeting scoring latency"
        ).observe

    # ------------------------------------------------------------------
    # Artifact activation (called by the offline producers)
    # ------------------------------------------------------------------
    def activate_graph(
        self, reasoner: GraphReasoner, version: int, tag: str | None = None
    ) -> None:
        """Hot-swap the weekly graph artifact.

        Builds the full next generation before installing it; cached
        expansions of the replaced version are purged (they are already
        unreachable — version is part of every cache key — this just
        returns the memory).

        Raises :class:`~repro.errors.DriftGateError` when the candidate has
        no edges; the old generation keeps serving.
        """
        self._activate("graph", ActiveArtifacts(
            graph_version=version, graph_tag=tag or f"graph-v{version}",
            reasoner=reasoner,
        ))

    def activate_preferences(
        self, store: PreferenceStore, version: int, tag: str | None = None
    ) -> None:
        """Hot-swap the daily preference artifact.

        Raises :class:`~repro.errors.DriftGateError` when the candidate's
        probe scores are constant; the old generation keeps serving.
        """
        self._activate("preferences", ActiveArtifacts(
            preference_version=version,
            preference_tag=tag or store.version_tag or f"daily-{version}",
            preference_store=store, targeting=UserTargeting(store),
        ))

    def _activate(self, kind: str, incoming: ActiveArtifacts) -> None:
        """Install ``incoming``'s generation of ``kind`` once the activation
        check against the served one (if any) passes; the served one
        becomes that kind's rollback slot."""
        with self._swap_lock:
            start = self._perf()
            current = self._active
            if getattr(current, _FIELDS[kind][2]) is not None:
                report = self._file_report(
                    _drift_report(kind, current, incoming, self._clock.time())
                )
                if report.gated:
                    self._refuse(report, getattr(incoming, _FIELDS[kind][1]), start)
            self._swap(kind, incoming, start)
            self._swap_counters[kind].inc()

    def _swap(
        self, kind: str, incoming: ActiveArtifacts, start_perf: float,
        rollback: bool = False,
    ) -> tuple[int | None, int]:
        """The one assignment an activation or a rollback makes: ``kind``'s
        fields from ``incoming``, the other kind's kept; the replaced
        generation, if one served, becomes the rollback slot. Returns the
        old and the new version."""
        version_field, tag_field, served_field = _FIELDS[kind][:3]
        current = self._active
        self._active = replace(
            current, **{name: getattr(incoming, name) for name in _FIELDS[kind]}
        )
        if getattr(current, served_field) is not None:
            self._previous[kind] = current.only(kind)
        old_version = getattr(current, version_field)
        new_version = getattr(incoming, version_field)
        if kind == "graph" and old_version is not None and old_version != new_version:
            self._cache.purge_version(old_version)
        self._swap_count += 1
        self._record_swap(
            kind, old_version, new_version, getattr(incoming, tag_field),
            start_perf, rollback=rollback,
        )
        self._version_gauges[kind].set(new_version)
        return old_version, new_version

    def _file_report(self, report: DriftReport) -> DriftReport:
        """Mark, count, log and forward one drift report.

        A critical report is always ``gated``: the caller refuses the swap.
        """
        report.gated = report.is_critical
        self._last_drift[report.kind] = report
        self.obs.metrics.counter(
            "drift_reports_total", help="Drift reports by kind and severity",
            kind=report.kind, severity=report.severity,
        ).inc()
        log = self._log.warning if report.gated else self._log.info
        log(
            "drift_report", kind=report.kind, old_version=report.old_version,
            new_version=report.new_version, severity=report.severity,
            reasons=report.reasons,
        )
        if self.on_drift_report is not None:
            self.on_drift_report(report)
        return report

    def _refuse(self, report: DriftReport, tag: str, start_perf: float) -> None:
        """Refuse a gated swap *before* the atomic assignment, so the active
        generation is untouched — in-flight and future requests keep being
        served from the old artifacts."""
        kind = report.kind
        self._reject_counters[kind].inc()
        self._record_swap(
            kind, report.old_version, report.new_version, tag, start_perf,
            refused=report,
        )
        raise DriftGateError(
            f"{kind} hot-swap v{report.old_version}->v{report.new_version} "
            f"refused: {', '.join(report.reasons)}"
        )

    def _record_swap(
        self, kind: str, old_version: int | None, new_version: int,
        tag: str | None, start_perf: float,
        refused: DriftReport | None = None, rollback: bool = False,
    ) -> None:
        """Append one hot-swap (refused swap, rollback) to the event log —
        version transitions must stay observable after the fact, not just
        bump a gauge."""
        event = {
            "kind": kind,
            "old_version": old_version,
            "new_version": new_version,
            "tag": tag,
            "duration_ms": (self._perf() - start_perf) * 1000,
            "at": self._clock.time(),
        }
        if rollback:
            event["rollback"] = True
        if refused is not None:
            event.update(
                rejected=True, severity=refused.severity,
                reasons=list(refused.reasons),
            )
        self._swap_events.append(event)

    def acquire(self) -> ActiveArtifacts:
        """Snapshot the active generation — in-flight work stays on it."""
        return self._active

    # ------------------------------------------------------------------
    # Rollback (the manual lever)
    # ------------------------------------------------------------------
    def rollback(self, kind: str = "graph") -> dict:
        """Reinstate the previous generation for one artifact kind.

        The previous generation was retained at swap time, so rollback is a
        single atomic reference assignment — exactly as cheap and safe as
        the swap that installed the bad artifact. Rolling back twice
        returns to where you started (the replaced generation is retained
        in turn).

        Returns the resulting :meth:`versions` map. Raises
        :class:`~repro.errors.ConfigError` for a kind other than
        ``"graph"`` / ``"preferences"`` (before touching any state) and
        :class:`~repro.errors.NotFittedError` when no previous generation
        of that kind exists.
        """
        if kind not in _FIELDS:
            raise ConfigError(f"unknown artifact kind {kind!r} for rollback")
        with self._swap_lock:
            return self._rollback(kind)

    def _rollback(self, kind: str) -> dict:
        start = self._perf()
        previous = self._previous.get(kind)
        if previous is None:
            raise NotFittedError(f"no previous {kind} generation to roll back to")
        old_version, new_version = self._swap(kind, previous, start, rollback=True)
        self._rollback_counters[kind].inc()
        self._log.warning(
            "rollback", kind=kind, old_version=old_version, new_version=new_version
        )
        return self.versions()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def expand(
        self,
        active: ActiveArtifacts,
        phrases: list[str],
        depth: int = 2,
        min_score: float = 0.0,
        max_neighbors_per_node: int | None = 25,
        max_nodes: int | None = None,
        deadline: Deadline | None = None,
    ) -> ExpansionView:
        """k-hop expansion from ``active`` (one :meth:`acquire`),
        read-through cached under its graph version."""
        with phase("runtime") as record:
            if deadline is not None:
                deadline.check("expand")
            reasoner = active.require_reasoner()
            key = (
                tuple(p.strip().lower() for p in phrases),
                depth,
                float(min_score),
                max_neighbors_per_node,
                max_nodes,
            )
            with phase("cache.get"):
                cached = self._cache.get(active.graph_version, key)
            if cached is not None:
                # Hits are not sampled into a histogram: their counts come
                # from the cache's own counters (collected at read-out) and
                # their latency is inside request_seconds.
                if record is not None:
                    record.cache, record.hops = "hit", cached.hop_sizes
                return cached
            start = self._perf()
            view = reasoner.expand(
                phrases,
                depth=depth,
                min_score=min_score,
                max_neighbors_per_node=max_neighbors_per_node,
                max_nodes=max_nodes,
            )
            with phase("cache.put"):
                self._cache.put(active.graph_version, key, view)
            elapsed = self._perf() - start
            self._observe_expand_miss(elapsed)
            if record is not None:
                record.cache, record.hops = "miss", view.hop_sizes
                self._log.info(
                    "expand_miss",
                    depth=depth,
                    graph_version=active.graph_version,
                    elapsed_ms=elapsed * 1000,
                )
            return view

    def target(
        self,
        active: ActiveArtifacts,
        entity_ids: list[int],
        k: int = 50,
        weights: list[float] | None = None,
        deadline: Deadline | None = None,
    ) -> TargetingResult:
        """Top-K users for one entity set, scored against ``active``'s
        preference generation."""
        with phase("runtime"):
            if deadline is not None:
                deadline.check("target")
            start = self._perf()
            result = active.require_targeting().target(entity_ids, k, weights=weights)
            self._observe_target(self._perf() - start)
            return result

    def target_batch(
        self,
        active: ActiveArtifacts,
        entity_sets: list[list[int]],
        k: int = 50,
        weights: list[list[float] | None] | None = None,
        deadline: Deadline | None = None,
    ) -> list[TargetingResult]:
        """Vectorized scoring of many entity sets in one call."""
        with phase("runtime"):
            if deadline is not None:
                deadline.check("target_batch")
            start = self._perf()
            results = active.require_targeting().target_batch(
                entity_sets, k, weights=weights
            )
            self._observe_target(self._perf() - start)
            return results

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def versions(self) -> dict:
        """The active artifact versions and tags."""
        active = self._active
        return {
            "graph_version": active.graph_version,
            "graph_tag": active.graph_tag,
            "preference_version": active.preference_version,
            "preference_tag": active.preference_tag,
        }

    def health(self) -> dict:
        """Liveness plus artifact/cache/drift state for the endpoint."""
        active = self._active
        return {
            "graph_ready": active.reasoner is not None,
            "preferences_ready": active.targeting is not None,
            "rollback_available": {kind: kind in self._previous for kind in _FIELDS},
            "swap_count": self._swap_count,
            "uptime_seconds": self._clock.time() - self._started_at,
            "cache": self._cache.stats(),
            "recent_swaps": self.swap_events(),
            "drift": self.drift_summary(),
            **self.versions(),
        }

    def swap_events(self) -> list[dict]:
        """The retained hot-swap event log, oldest first."""
        return list(self._swap_events)

    def drift_summary(self) -> dict:
        """Per-kind latest drift verdict, embedded in ``health()``."""
        summary: dict = {}
        for kind in _FIELDS:
            last = self._last_drift.get(kind)
            summary[kind] = None if last is None else {
                "severity": last.severity,
                "old_version": last.old_version,
                "new_version": last.new_version,
                "gated": last.gated,
                "reasons": list(last.reasons),
                "computed_at": last.computed_at,
            }
        return summary

    @property
    def cache(self) -> VersionedLRUCache:
        return self._cache

    def cache_stats(self) -> dict:
        """The expansion cache's counters."""
        return self._cache.stats()
