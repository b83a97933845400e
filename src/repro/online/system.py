"""EGLSystem — the hybrid offline/online facade (paper Fig. 2).

Offline cadence (§II-B Remark):

* ``weekly_refresh(events)`` — run TRMP on the week's logs, commit the mined
  entity graph to the Geabase-style :class:`~repro.graph.GraphStore` as a
  new version, retrain the ensemble over trailing snapshots;
* ``daily_preference_refresh(events)`` — recompute user embeddings and the
  preference index from the last 30 days of behavior.

Both producers end by *publishing* their output to the
:class:`~repro.serving.ArtifactRegistry` and hot-swapping it into the
:class:`~repro.serving.ServingRuntime` — the facade itself holds no live
serving state. The online path (``expand`` → ``record_choice`` →
``target_users``) delegates to the runtime, which serves from immutable,
version-pinned artifacts behind a read-through expansion cache.
"""

from __future__ import annotations

import ctypes
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.behavior import BehaviorEvent
from repro.datasets.world import World
from repro.errors import (
    CircuitOpenError,
    DriftGateError,
    NotFittedError,
    StorageError,
)
from repro.graph.entity_graph import EntityGraph
from repro.graph.storage import GraphStore
from repro.obs import (
    AlertManager,
    DriftConfig,
    DriftMonitor,
    Observability,
    ResourceAccountant,
    SLOTracker,
    default_alert_rules,
    default_objectives,
)
from repro.obs.drift import DriftReport
from repro.online.feedback import FeedbackRecorder
from repro.online.reasoning import ExpansionView, GraphReasoner
from repro.online.targeting import TargetingResult
from repro.preference.store import PreferenceStore
from repro.resilience import Deadline, FaultInjector, RetryPolicy
from repro.serving import ArtifactRegistry, ServingRuntime
from repro.trmp.pipeline import TRMPConfig, TRMPipeline, WeeklyRun

try:  # glibc only; elsewhere there is nothing to trim
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_freed_heap() -> None:
    """Return the heap pages freed so far to the OS.

    TRMP trains inside the serving process. glibc keeps most of what the
    training frees in its heap, and how much depends on where the freed
    chunks happen to lie, so without this the server's resident set after
    a weekly refresh differs by ~30 MB from one run to the next.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def graph_digest(graph: EntityGraph) -> str:
    """Content digest of a mined graph — the byte-identity proof the
    chaos suite compares between interrupted-then-resumed and
    uninterrupted refreshes."""
    digest = hashlib.sha256()
    lo, hi = graph.canonical_pairs()
    for array in (lo, hi, graph.weight, graph.relation):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass
class RefreshReport:
    """Summary of one weekly offline refresh."""

    week: int
    graph_version: int
    num_relations: int
    ensemble_trained: bool
    elapsed_seconds: float
    #: Wall time each TRMP stage added to the refresh (incl. ensemble when
    #: trained); sums to ``elapsed_seconds`` less untimed glue.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Busy seconds of stages that ran in the stage worker beside another
    #: stage (week 0: ``cooccurrence_embedding``); ``{}`` when none did.
    overlapped_seconds: dict[str, float] = field(default_factory=dict)
    #: True when the drift gate (or an open activation breaker) rejected
    #: the hot-swap: the artifact was published to the registry but serving
    #: stayed on the old generation.
    swap_rejected: bool = False
    swap_rejected_reason: str | None = None
    #: Checkpoint run id for this refresh (``weekly-<week>``).
    run_id: str | None = None
    #: Stages loaded from checkpoints instead of recomputed (resume path).
    resumed_stages: list[str] = field(default_factory=list)
    #: Content digest of the published ranked graph — identical for a
    #: resumed and an uninterrupted run of the same seeded refresh.
    artifact_digest: str | None = None
    #: Format of the published graph generation: "csr" (frozen artifact
    #: directory) or "memory" (storeless, rootless registry).
    graph_format: str | None = None


class EGLSystem:
    """End-to-end Entity Graph Learning system over a synthetic world."""

    def __init__(
        self,
        world: World,
        config: TRMPConfig | None = None,
        store_path: str | Path | None = None,
        artifact_root: str | Path | None = None,
        cache_size: int = 256,
        obs: Observability | None = None,
        drift_config: DriftConfig | None = None,
        gate_on_critical_drift: bool = False,
        retry_policy: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.world = world
        self.obs = obs or Observability()
        self.faults = faults
        self.retry = retry_policy or RetryPolicy(clock=self.obs.clock)
        if self.retry.on_retry is None:
            self.retry.on_retry = self._count_retry
        self.feedback = FeedbackRecorder()
        self.store = (
            GraphStore(store_path, num_nodes=world.num_entities)
            if store_path is not None
            else None
        )
        self.registry = ArtifactRegistry(root=artifact_root, faults=faults)
        self.pipeline = TRMPipeline(
            world, config, obs=self.obs,
            checkpoints=self.registry.checkpoints,
            retry=self.retry, faults=faults,
        )
        self.drift_monitor = DriftMonitor(
            config=drift_config,
            metrics=self.obs.metrics,
            clock=self.obs.clock,
            logger=self.obs.logger.child("drift"),
        )
        self.runtime = ServingRuntime(
            cache_size=cache_size,
            obs=self.obs,
            drift_monitor=self.drift_monitor,
            gate_on_critical_drift=gate_on_critical_drift,
            faults=faults,
        )
        # Every drift report — from refresh-driven swaps *and* direct
        # runtime activations — lands in the registry and the alert engine.
        self.runtime.on_drift_report = self._on_drift_report
        self.slo = SLOTracker(
            default_objectives(), self.obs.metrics, clock=self.obs.clock
        )
        self.alerts = AlertManager(
            default_alert_rules(),
            clock=self.obs.clock,
            metrics=self.obs.metrics,
            logger=self.obs.logger.child("alerts"),
        )
        # Per-generation footprint gauges (disk bytes, generation counts,
        # mmap opens) exported via read-time collectors and ``/profile``.
        self.resources = ResourceAccountant(
            metrics=self.obs.metrics, registry=self.registry
        )

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def _count_retry(self, seam: str, attempt: int, error: Exception) -> None:
        """RetryPolicy hook: every backoff is counted and logged."""
        self.obs.metrics.counter(
            "resilience_retries_total",
            help="Transient-failure retries by seam", seam=seam,
        ).inc()
        self.obs.logger.child("resilience").warning(
            "retry", seam=seam, attempt=attempt, error=str(error)
        )

    def _publish_week_graph(self, run: WeeklyRun) -> dict:
        """Commit + publish one week's mined graph; returns a path-free
        summary of the registered generation (the freeze-stage payload)."""
        tag = f"week-{run.week}"
        if self.store is not None:
            lo, hi = run.ranked_graph.canonical_pairs()
            self.store.put_edges(
                list(zip(lo.tolist(), hi.tolist())),
                run.ranked_graph.weight.tolist(),
                run.ranked_graph.relation.tolist(),
            )
            self.store.commit_version(tag=tag)
            record = self.retry.call(
                lambda: self.registry.publish_graph(self.store, tag=tag),
                seam="registry.publish_graph",
            )
        else:
            record = self.retry.call(
                lambda: self.registry.publish_graph(run.ranked_graph, tag=tag),
                seam="registry.publish_graph",
            )
        return {
            "version": record.version,
            "tag": record.tag,
            "format": record.format,
            "digest": graph_digest(run.ranked_graph),
        }

    def weekly_refresh(
        self, events: list[BehaviorEvent], resume: bool = False
    ) -> RefreshReport:
        """Run TRMP on a weekly data drop and publish the new entity graph.

        Fault tolerance: every stage checkpoints into the registry under
        ``weekly-<week>`` as it completes, so ``resume=True`` after a crash
        recomputes only what the crash interrupted (seeded stages make the
        result byte-identical — compare ``RefreshReport.artifact_digest``).
        Registry publishes ride the retry policy; an activation rejected by
        the drift gate or an open activation breaker leaves the artifact
        published while serving stays on the last-good generation.
        """
        clock = self.obs.clock
        start = clock.perf()
        feedback_pairs = self.feedback.drain()
        run_id = f"weekly-{len(self.pipeline.weekly_runs):04d}"
        run: WeeklyRun = self.pipeline.run_week(
            events, feedback_pairs=feedback_pairs, run_id=run_id, resume=resume
        )

        # Freeze + register the mined graph as its own checkpointed
        # stage: a crash between publication and activation resumes
        # onto the already-registered generation.
        frozen = self.pipeline.freeze_artifacts(
            run_id, lambda: self._publish_week_graph(run), resume=resume
        )

        ensemble_trained = False
        if len(self.pipeline.weekly_runs) >= 2:
            self.pipeline.train_ensemble(run_id=run_id, resume=resume)
            ensemble_trained = True

        # Hot-swap: build the complete new reasoner, then activate it —
        # requests already in flight finish on the previous version.
        reasoner = GraphReasoner(
            self.retry.call(
                lambda: self.registry.open_graph(frozen["version"]),
                seam="registry.open_graph",
            ),
            self.pipeline.entity_dict,
            semantic_encoder=self.pipeline.semantic_encoder,
            e_semantic=self.pipeline.e_semantic,
        )
        swap_rejected = False
        swap_rejected_reason = None
        try:
            self.runtime.activate_graph(
                reasoner, frozen["version"], tag=frozen["tag"]
            )
        except (DriftGateError, CircuitOpenError) as error:
            # The artifact stays published (evidence!) but serving keeps
            # the old generation; a drift report is already in the
            # registry and the alert engine via _on_drift_report.
            swap_rejected = True
            swap_rejected_reason = str(error)
        _release_freed_heap()
        elapsed = clock.perf() - start
        metrics = self.obs.metrics
        metrics.counter(
            "offline_refreshes_total", help="Offline refreshes run", job="weekly"
        ).inc()
        metrics.histogram(
            "offline_refresh_seconds", help="Offline refresh wall time", job="weekly"
        ).observe(elapsed)
        return RefreshReport(
            week=run.week,
            graph_version=frozen["version"],
            num_relations=run.ranked_graph.num_edges,
            ensemble_trained=ensemble_trained,
            elapsed_seconds=elapsed,
            stage_seconds=self.pipeline.stage_seconds,
            overlapped_seconds=self.pipeline.overlapped_seconds,
            swap_rejected=swap_rejected,
            swap_rejected_reason=swap_rejected_reason,
            run_id=run_id,
            resumed_stages=list(run.resumed_stages),
            artifact_digest=graph_digest(run.ranked_graph),
            graph_format=frozen.get("format"),
        )

    def daily_preference_refresh(self, events: list[BehaviorEvent]) -> int:
        """Recompute user embeddings/preferences; returns #covered users."""
        clock = self.obs.clock
        start = clock.perf()
        embeddings = self.pipeline.entity_embeddings()
        sequences = self.pipeline.extractor.extract_sequences(events)
        store = PreferenceStore(embeddings).build(sequences, self.world.num_users)
        covered = int(store.covered_users.sum())
        record = self.retry.call(
            lambda: self.registry.publish_preferences(store),
            seam="registry.publish_preferences",
        )
        try:
            # Serve the registry's artifact: a rooted registry maps the
            # published pages read-only and shared, not copied.
            serve_store = self.retry.call(
                lambda: self.registry.open_preferences(record.version),
                seam="registry.open_preferences",
            )
        except StorageError:
            pass  # artifact quarantined; the last-good generation keeps serving
        else:
            try:
                self.runtime.activate_preferences(
                    serve_store, record.version, tag=record.tag
                )
            except (DriftGateError, CircuitOpenError):
                pass  # published but not activated; report already filed
        metrics = self.obs.metrics
        metrics.counter("offline_refreshes_total", job="daily").inc()
        metrics.histogram("offline_refresh_seconds", job="daily").observe(
            clock.perf() - start
        )
        return covered

    def rollback(self, kind: str = "graph") -> dict:
        """Swap serving back to the previous generation of ``kind``.

        The escape hatch when a bad artifact slipped past the drift gate:
        one atomic reference swap, no recomputation. Returns the runtime's
        post-rollback version map.
        """
        return self.runtime.rollback(kind)

    # ------------------------------------------------------------------
    # Quality monitoring (drift + SLOs + alerts)
    # ------------------------------------------------------------------
    def _on_drift_report(self, report: DriftReport) -> None:
        """Runtime callback: persist the report and re-evaluate alerts."""
        self.registry.attach_drift_report(report)
        self.evaluate_alerts()

    def quality_signals(self) -> dict:
        """One flat signal map for the alert rules: SLO status + drift.

        Evaluates the SLO rolling windows (appending one sample per counter
        family) and folds in the latest per-kind drift verdicts under the
        ``drift_*`` names the default rules reference.
        """
        evaluation = self.slo.evaluate()
        signals = dict(evaluation["signals"])
        critical = 0.0
        for kind, psi_key in (("graph", "degree_shift"), ("preferences", "score_shift")):
            report = self.runtime.last_drift_report(kind)
            if report is None:
                continue
            if report.is_critical:
                critical = 1.0
            psi = (report.metrics.get(psi_key) or {}).get("psi")
            if psi is not None:
                signals[f"drift_{kind}_psi"] = psi
        signals["drift_critical"] = critical
        return signals

    def evaluate_alerts(self) -> list[dict]:
        """Evaluate every alert rule against the current quality signals.

        Returns the state *transitions* this evaluation produced (rules
        newly firing or resolving); steady state returns an empty list.
        """
        return self.alerts.evaluate(self.quality_signals())

    # ------------------------------------------------------------------
    # Online stage (delegates to the serving runtime)
    # ------------------------------------------------------------------
    @property
    def reasoner(self) -> GraphReasoner:
        return self.runtime.acquire().require_reasoner()

    def expand(
        self,
        phrases: list[str],
        depth: int = 2,
        min_score: float = 0.0,
        deadline: Deadline | None = None,
    ) -> ExpansionView:
        """Marketer request: show the k-hop subgraph around the phrases."""
        return self.runtime.expand(
            phrases, depth=depth, min_score=min_score, deadline=deadline
        )

    def record_choice(self, seed_entity_id: int, chosen_entity_ids: list[int]) -> None:
        """Marketer kept these entities — high-confidence feedback (§II-B)."""
        self.feedback.record_expansion_choice(seed_entity_id, chosen_entity_ids)

    def target_users(
        self,
        entity_ids: list[int],
        k: int = 50,
        weights: list[float] | None = None,
        deadline: Deadline | None = None,
    ) -> TargetingResult:
        """Export the top-K users for the chosen entities (Fig. 6 step 3)."""
        return self.runtime.target(entity_ids, k=k, weights=weights, deadline=deadline)

    def target_users_batch(
        self,
        entity_sets: list[list[int]],
        k: int = 50,
        weights: list[list[float] | None] | None = None,
        deadline: Deadline | None = None,
    ) -> list[TargetingResult]:
        """Batched export: many entity sets scored in one vectorized pass."""
        return self.runtime.target_batch(
            entity_sets, k=k, weights=weights, deadline=deadline
        )

    def target_users_for_phrases(
        self,
        phrases: list[str],
        depth: int = 2,
        k: int = 50,
        min_score: float = 0.0,
        max_entities: int | None = 15,
        deadline: Deadline | None = None,
    ) -> tuple[ExpansionView, TargetingResult]:
        """The full cold-start flow: phrases → expansion → top-K users.

        The expansion's relevance scores weight each entity's contribution,
        and only the ``max_entities`` most relevant entities are used —
        mirroring a marketer keeping the best suggestions rather than the
        whole k-hop frontier. The deadline is re-checked before scoring,
        so a slow expansion sheds the (more expensive) scoring pass instead
        of starting it with a spent budget.
        """
        view = self.runtime.expand(
            phrases, depth=depth, min_score=min_score, deadline=deadline
        )
        chosen = view.entities if max_entities is None else view.entities[:max_entities]
        weights = [e.score for e in chosen]
        return view, self.runtime.target(
            [e.entity_id for e in chosen], k=k, weights=weights, deadline=deadline
        )

    @property
    def preference_store(self) -> PreferenceStore:
        store = self.runtime.acquire().preference_store
        if store is None:
            raise NotFittedError("daily_preference_refresh has not run yet")
        return store
