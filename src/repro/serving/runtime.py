"""ServingRuntime — owns the active artifact set and the online read path.

The paper's online stage answers marketer requests "in milliseconds" while
the offline producers republish artifacts weekly (entity graph) and daily
(preference index). This layer makes that safe:

* the active artifacts live in one immutable :class:`ActiveArtifacts`
  value; a refresh builds the *complete* next value and installs it with a
  single reference assignment (atomic under the GIL), so a request that
  already called :meth:`acquire` finishes on the old version while new
  requests see the new one — no half-swapped state is ever observable;
* expansions are answered through a version-keyed read-through LRU cache
  (:class:`~repro.serving.cache.VersionedLRUCache`); because the version is
  part of the key, a cached expansion can never be served for a graph that
  did not produce it;
* every forward pass on the read path runs under
  :func:`repro.tensor.no_grad`;
* when a :class:`~repro.obs.drift.DriftMonitor` is attached, every
  activation first measures the candidate against the active artifact and
  produces a :class:`~repro.obs.drift.DriftReport`; with
  ``gate_on_critical_drift=True`` a critical report *rejects* the swap
  (:class:`~repro.errors.DriftGateError`) and serving continues on the old
  generation — the report is still recorded and forwarded, so the rejection
  is observable everywhere a successful swap would be.

Degraded-mode serving (this layer's fault-tolerance contract):

* **activation breaker** — repeated activation failures (corrupt artifact,
  injected storage faults) trip a :class:`~repro.resilience.CircuitBreaker`;
  while it is open, further swap attempts are rejected fast with
  :class:`~repro.errors.CircuitOpenError` and the last-good generation
  keeps serving;
* **preference-read breaker** — failures while scoring users trip a second
  breaker; while it is open, ``target*`` serves from the *last-good*
  generation (the one that most recently scored successfully) instead of
  the active one, and recovery is probed half-open under the clock;
* **deadlines** — ``expand``/``target*`` accept a per-request
  :class:`~repro.resilience.Deadline`; expired requests are *shed*
  (:class:`~repro.errors.DeadlineExceededError`) and counted, never
  finished late;
* **rollback** — :meth:`ServingRuntime.rollback` reinstates the previous
  generation per artifact kind (the manual lever when a bad artifact got
  past every gate).

``health()`` reports ``degraded: true`` with reasons whenever any breaker
is not closed, so operators (and the chaos suite) see every degraded
interval.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DriftGateError,
    NotFittedError,
    ReproError,
)
from repro.obs import Observability
from repro.obs.context import annotate, phase
from repro.obs.drift import DriftMonitor, DriftReport
from repro.online.reasoning import ExpansionView, GraphReasoner
from repro.online.targeting import TargetingResult, UserTargeting
from repro.preference.store import PreferenceStore
from repro.resilience import CLOSED, CircuitBreaker, Deadline, FaultInjector
from repro.serving.cache import VersionedLRUCache
from repro.tensor import no_grad

#: How many hot-swap events the runtime keeps for post-hoc inspection.
SWAP_EVENT_CAPACITY = 64


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


class ServingRuntime:
    """Hot-swappable serving layer between offline artifacts and the API."""

    def __init__(
        self,
        cache_size: int = 256,
        obs: Observability | None = None,
        drift_monitor: DriftMonitor | None = None,
        gate_on_critical_drift: bool = False,
        activation_breaker: CircuitBreaker | None = None,
        read_breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
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
        self.drift_monitor = drift_monitor
        self.gate_on_critical_drift = gate_on_critical_drift
        self._drift_reports: deque[DriftReport] = deque(maxlen=SWAP_EVENT_CAPACITY)
        self._faults = faults
        self._log = self.obs.logger.child("runtime")
        # Previous generations, per artifact kind, for explicit rollback.
        self._previous_graph: ActiveArtifacts | None = None
        self._previous_preferences: ActiveArtifacts | None = None
        # The generation that most recently *served a scoring request
        # successfully* — what degraded mode falls back to when the
        # preference-read breaker is open.
        self._last_good: ActiveArtifacts | None = None
        self.activation_breaker = activation_breaker or CircuitBreaker(
            "activation", failure_threshold=3, recovery_timeout=60.0,
            clock=self._clock, on_transition=self._on_breaker_transition,
        )
        self.read_breaker = read_breaker or CircuitBreaker(
            "preference_read", failure_threshold=5, recovery_timeout=30.0,
            clock=self._clock, on_transition=self._on_breaker_transition,
        )
        for breaker in (self.activation_breaker, self.read_breaker):
            if breaker.on_transition is None:
                breaker.on_transition = self._on_breaker_transition
        #: Optional callback invoked with every DriftReport (accepted or
        #: rejected); EGLSystem uses it to persist reports in the registry
        #: and feed the alert engine, including for direct activations.
        self.on_drift_report = None
        metrics = self.obs.metrics
        self._graph_version_gauge = metrics.gauge(
            "serving_active_version", help="Active artifact version", kind="graph"
        )
        self._pref_version_gauge = metrics.gauge("serving_active_version", kind="preferences")
        self._graph_swap_counter = metrics.counter(
            "serving_hot_swaps_total", help="Artifact hot-swaps performed", kind="graph"
        )
        self._pref_swap_counter = metrics.counter("serving_hot_swaps_total", kind="preferences")
        self._graph_reject_counter = metrics.counter(
            "serving_swap_rejections_total",
            help="Hot-swaps rejected by the drift gate", kind="graph",
        )
        self._pref_reject_counter = metrics.counter(
            "serving_swap_rejections_total", kind="preferences"
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
        self._degraded_gauge = metrics.gauge(
            "serving_degraded", help="1 while any serving breaker is not closed"
        )
        self._degraded_serve_counter = metrics.counter(
            "serving_degraded_serves_total",
            help="Requests answered from the last-good generation",
        )
        self._rollback_counters = {
            kind: metrics.counter(
                "serving_rollbacks_total",
                help="Explicit rollbacks to the previous generation", kind=kind,
            )
            for kind in ("graph", "preferences")
        }
        self._shed_counters: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _on_breaker_transition(self, name: str, old: str, new: str) -> None:
        self.obs.metrics.counter(
            "breaker_transitions_total",
            help="Circuit-breaker state transitions", breaker=name, to=new,
        ).inc()
        self._degraded_gauge.set(1.0 if self._degraded_reasons() else 0.0)
        self._log.warning(
            "breaker_transition", breaker=name, old_state=old, new_state=new
        )

    def _degraded_reasons(self) -> list[str]:
        reasons = []
        for breaker in (self.activation_breaker, self.read_breaker):
            snap = breaker.snapshot()
            if snap["state"] != CLOSED:
                detail = (
                    f" (last error: {snap['last_error']})" if snap["last_error"] else ""
                )
                reasons.append(f"{breaker.name} breaker {snap['state']}{detail}")
        return reasons

    @property
    def degraded(self) -> bool:
        """True while any serving breaker is open or probing recovery."""
        return bool(self._degraded_reasons())

    def _shed(self, endpoint: str, reason: str) -> None:
        counter = self._shed_counters.get((endpoint, reason))
        if counter is None:
            counter = self.obs.metrics.counter(
                "serving_shed_requests_total",
                help="Requests shed instead of served",
                endpoint=endpoint, reason=reason,
            )
            self._shed_counters[(endpoint, reason)] = counter
        counter.inc()

    def _check_deadline(self, deadline: Deadline | None, endpoint: str) -> None:
        if deadline is not None and deadline.expired:
            self._shed(endpoint, "deadline")
            deadline.check(endpoint)

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

        Raises :class:`~repro.errors.DriftGateError` when the drift gate is
        enabled and the candidate drifted critically from the active graph;
        :class:`~repro.errors.CircuitOpenError` when the activation breaker
        is open. Either way the old generation keeps serving.
        """
        with self._swap_lock:
            self._activate_graph(reasoner, version, tag)

    def _activate_graph(
        self, reasoner: GraphReasoner, version: int, tag: str | None
    ) -> None:
        start = self._perf()
        breaker = self.activation_breaker
        breaker.allow()
        previous = self._active
        try:
            if self._faults is not None:
                self._faults.check("runtime.activate")
            if self.drift_monitor is not None and previous.reasoner is not None:
                report = self.drift_monitor.graph_report(
                    previous.reasoner.graph, reasoner.graph,
                    previous.graph_version, version,
                )
                self._check_gate("graph", report, tag or f"graph-v{version}", start)
        except DriftGateError:
            # A gate rejection is a *policy* outcome, not an infrastructure
            # failure — it must not push the breaker towards tripping.
            raise
        except Exception as error:
            breaker.record_failure(error)
            raise
        self._active = replace(
            previous,
            graph_version=version,
            graph_tag=tag or f"graph-v{version}",
            reasoner=reasoner,
        )
        breaker.record_success()
        if previous.reasoner is not None:
            self._previous_graph = previous
        self._swap_count += 1
        if previous.graph_version is not None and previous.graph_version != version:
            self._cache.purge_version(previous.graph_version)
        self._record_swap("graph", previous.graph_version, version, self._active.graph_tag, start)
        self._graph_swap_counter.inc()
        self._graph_version_gauge.set(version)

    def activate_preferences(
        self, store: PreferenceStore, version: int, tag: str | None = None
    ) -> None:
        """Hot-swap the daily preference artifact.

        Raises :class:`~repro.errors.DriftGateError` when the drift gate is
        enabled and the candidate's score distribution drifted critically;
        :class:`~repro.errors.CircuitOpenError` when the activation breaker
        is open.
        """
        with self._swap_lock:
            self._activate_preferences(store, version, tag)

    def _activate_preferences(
        self, store: PreferenceStore, version: int, tag: str | None
    ) -> None:
        start = self._perf()
        breaker = self.activation_breaker
        breaker.allow()
        previous = self._active
        try:
            if self._faults is not None:
                self._faults.check("runtime.activate")
            if self.drift_monitor is not None and previous.preference_store is not None:
                report = self.drift_monitor.preference_report(
                    previous.preference_store, store,
                    previous.preference_version, version,
                )
                self._check_gate(
                    "preferences", report,
                    tag or store.version_tag or f"daily-{version}", start,
                )
        except DriftGateError:
            raise
        except Exception as error:
            breaker.record_failure(error)
            raise
        self._active = replace(
            previous,
            preference_version=version,
            preference_tag=tag or store.version_tag or f"daily-{version}",
            preference_store=store,
            targeting=UserTargeting(store),
        )
        breaker.record_success()
        if previous.preference_store is not None:
            self._previous_preferences = previous
        self._swap_count += 1
        self._record_swap(
            "preferences", previous.preference_version, version,
            self._active.preference_tag, start,
        )
        self._pref_swap_counter.inc()
        self._pref_version_gauge.set(version)

    def _check_gate(
        self, kind: str, report: DriftReport, tag: str | None, start_perf: float
    ) -> None:
        """Record the report; reject the swap if the gate says so.

        Runs *before* the atomic assignment, so a rejection leaves the
        active generation untouched — in-flight and future requests keep
        being served from the old artifacts.
        """
        gated = self.gate_on_critical_drift and report.is_critical
        report.gated = gated
        self._drift_reports.append(report)
        if self.on_drift_report is not None:
            self.on_drift_report(report)
        if not gated:
            return
        counter = self._graph_reject_counter if kind == "graph" else self._pref_reject_counter
        counter.inc()
        self._swap_events.append(
            {
                "kind": kind,
                "old_version": report.old_version,
                "new_version": report.new_version,
                "tag": tag,
                "rejected": True,
                "severity": report.severity,
                "reasons": list(report.reasons),
                "duration_ms": (self._perf() - start_perf) * 1000,
                "at": self._clock.time(),
            }
        )
        raise DriftGateError(
            f"{kind} hot-swap v{report.old_version}->v{report.new_version} "
            f"rejected by drift gate: {', '.join(report.reasons) or report.severity}"
        )

    def _record_swap(
        self,
        kind: str,
        old_version: int | None,
        new_version: int,
        tag: str | None,
        start_perf: float,
    ) -> None:
        """Append one hot-swap to the event log — version transitions must
        stay observable after the fact, not just bump a gauge."""
        self._swap_events.append(
            {
                "kind": kind,
                "old_version": old_version,
                "new_version": new_version,
                "tag": tag,
                "duration_ms": (self._perf() - start_perf) * 1000,
                "at": self._clock.time(),
            }
        )

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
        if kind not in self._rollback_counters:
            raise ConfigError(f"unknown artifact kind {kind!r} for rollback")
        with self._swap_lock:
            return self._rollback(kind)

    def _rollback(self, kind: str) -> dict:
        start = self._perf()
        current = self._active
        if kind == "graph":
            previous = self._previous_graph
            if previous is None:
                raise NotFittedError("no previous graph generation to roll back to")
            self._active = replace(
                current,
                graph_version=previous.graph_version,
                graph_tag=previous.graph_tag,
                reasoner=previous.reasoner,
            )
            self._previous_graph = current
            old_version, new_version = current.graph_version, previous.graph_version
            tag = previous.graph_tag
            if old_version is not None and old_version != new_version:
                self._cache.purge_version(old_version)
            self._graph_version_gauge.set(new_version)
        else:
            previous = self._previous_preferences
            if previous is None:
                raise NotFittedError(
                    "no previous preference generation to roll back to"
                )
            self._active = replace(
                current,
                preference_version=previous.preference_version,
                preference_tag=previous.preference_tag,
                preference_store=previous.preference_store,
                targeting=previous.targeting,
            )
            self._previous_preferences = current
            old_version = current.preference_version
            new_version = previous.preference_version
            tag = previous.preference_tag
            self._pref_version_gauge.set(new_version)
        self._swap_count += 1
        self._swap_events.append(
            {
                "kind": kind,
                "old_version": old_version,
                "new_version": new_version,
                "tag": tag,
                "rollback": True,
                "duration_ms": (self._perf() - start) * 1000,
                "at": self._clock.time(),
            }
        )
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
        phrases: list[str],
        depth: int = 2,
        min_score: float = 0.0,
        max_neighbors_per_node: int | None = 25,
        max_nodes: int | None = None,
        deadline: Deadline | None = None,
    ) -> ExpansionView:
        """k-hop expansion, read-through cached under the active version."""
        with phase("runtime") as record:
            self._check_deadline(deadline, "expand")
            active = self.acquire()
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
                # their latency is inside api_request_seconds.
                if record is not None:
                    record.cache, record.hops = "hit", cached.hop_sizes
                return cached
            start = self._perf()
            with no_grad():
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

    def _score(self, endpoint: str, score_with) -> object:
        """Run one scoring call through the preference-read breaker.

        Closed (or half-open with a trial slot): score against the active
        generation; success refreshes the last-good snapshot, failure
        counts towards tripping and falls back once if a distinct last-good
        generation exists. Open: skip the active generation entirely and
        serve from last-good — the degraded interval the breaker buys.
        """
        breaker = self.read_breaker
        active = self.acquire()
        if not breaker.allow_request():
            fallback = self._last_good
            if fallback is None or fallback.targeting is None:
                self._shed(endpoint, "circuit_open")
                raise CircuitOpenError(
                    "preference read path is open and no last-good generation exists"
                )
            self._degraded_serve_counter.inc()
            annotate(degraded="preference_read_open")
            return score_with(fallback.targeting)
        targeting = active.require_targeting()  # NotFittedError is not a failure
        try:
            if self._faults is not None:
                self._faults.check("preferences.read")
            result = score_with(targeting)
        except (ConfigError, NotFittedError):
            raise  # caller mistakes, not dependency failures
        except ReproError as error:
            breaker.record_failure(error)
            fallback = self._last_good
            if (
                fallback is not None
                and fallback.targeting is not None
                and fallback.targeting is not targeting
            ):
                self._degraded_serve_counter.inc()
                annotate(degraded="preference_read_failure")
                return score_with(fallback.targeting)
            raise
        breaker.record_success()
        self._last_good = active
        return result

    def target(
        self,
        entity_ids: list[int],
        k: int = 50,
        weights: list[float] | None = None,
        deadline: Deadline | None = None,
    ) -> TargetingResult:
        """Top-K users for one entity set (scoring already under no_grad)."""
        with phase("runtime"):
            self._check_deadline(deadline, "target")
            start = self._perf()
            result = self._score(
                "target", lambda t: t.target(entity_ids, k, weights=weights)
            )
            self._observe_target(self._perf() - start)
            return result

    def target_batch(
        self,
        entity_sets: list[list[int]],
        k: int = 50,
        weights: list[list[float] | None] | None = None,
        deadline: Deadline | None = None,
    ) -> list[TargetingResult]:
        """Vectorized scoring of many entity sets in one call."""
        with phase("runtime"):
            self._check_deadline(deadline, "target_batch")
            start = self._perf()
            results = self._score(
                "target_batch",
                lambda t: t.target_batch(entity_sets, k, weights=weights),
            )
            self._observe_target(self._perf() - start)
            return results

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def versions(self) -> dict:
        """The active artifact versions — attached to every API response.

        ``*_format`` names the serving representation each artifact is
        mapped through — ``"csr"``/``"memmap"`` for the zero-copy mmap
        substrate, ``"memory"`` for in-process artifacts — so operators
        can tell at a glance whether a generation swap was a remap or a
        copy.
        """
        active = self._active
        graph_format = None
        if active.reasoner is not None:
            graph_format = getattr(active.reasoner.graph, "artifact_format", "memory")
        preference_format = None
        if active.preference_store is not None:
            preference_format = active.preference_store.storage
        return {
            "graph_version": active.graph_version,
            "graph_tag": active.graph_tag,
            "graph_format": graph_format,
            "preference_version": active.preference_version,
            "preference_tag": active.preference_tag,
            "preference_format": preference_format,
        }

    def health(self) -> dict:
        """Liveness plus artifact/cache/degraded state for the endpoint."""
        active = self._active
        reasons = self._degraded_reasons()
        return {
            "graph_ready": active.reasoner is not None,
            "preferences_ready": active.targeting is not None,
            "degraded": bool(reasons),
            "degraded_reasons": reasons,
            "breakers": {
                "activation": self.activation_breaker.snapshot(),
                "preference_read": self.read_breaker.snapshot(),
            },
            "rollback_available": {
                "graph": self._previous_graph is not None,
                "preferences": self._previous_preferences is not None,
            },
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

    def drift_reports(self, kind: str | None = None) -> list[DriftReport]:
        """Retained drift reports, oldest first, optionally by kind."""
        reports = list(self._drift_reports)
        if kind is not None:
            reports = [r for r in reports if r.kind == kind]
        return reports

    def last_drift_report(self, kind: str) -> DriftReport | None:
        for report in reversed(self._drift_reports):
            if report.kind == kind:
                return report
        return None

    def drift_summary(self) -> dict:
        """Per-kind latest drift verdict, embedded in ``health()``."""
        summary: dict = {
            "monitored": self.drift_monitor is not None,
            "gate_on_critical_drift": self.gate_on_critical_drift,
            "reports": len(self._drift_reports),
        }
        for kind in ("graph", "preferences"):
            last = self.last_drift_report(kind)
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
