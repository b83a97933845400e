"""EGLSystem — the hybrid offline/online facade (paper Fig. 2).

Offline cadence (§II-B Remark):

* ``weekly_refresh(events)`` — run TRMP on the week's logs, publish the
  mined entity graph as the registry's next graph generation (the
  Geabase stand-in), retrain the ensemble over trailing snapshots;
* ``daily_preference_refresh(events)`` — recompute user embeddings and the
  preference index from the last 30 days of behavior.

Everything either producer trains or builds runs in a stage worker
(:mod:`repro.trmp.stage_worker`); this process orchestrates, checkpoints,
publishes and serves.

Both producers end by *publishing* their output to the
:class:`~repro.serving.ArtifactRegistry` and hot-swapping it into the
:class:`~repro.serving.ServingRuntime` — the facade itself holds no live
serving state and answers no query. The online path reads
``system.runtime``: a request acquires the active generation once
(``runtime.acquire()``) and is answered from it, through
:meth:`~repro.serving.frontend.QueryFrontend.dispatch` or
:func:`~repro.online.targeting.target_users_for_phrases`. Marketer
choices come back through :meth:`EGLSystem.record_choice`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.behavior import BehaviorLog
from repro.datasets.world import World
from repro.errors import CorruptArtifactError, DriftGateError
from repro.graph.entity_graph import EntityGraph
from repro.obs import Observability, ResourceAccountant
from repro.online.feedback import FeedbackRecorder
from repro.online.reasoning import GraphReasoner
from repro.resilience import FaultInjector
from repro.serving import ArtifactRecord, ArtifactRegistry, ServingRuntime
from repro.serving.registry import removed_on_failure
from repro.trmp.pipeline import TRMPConfig, TRMPipeline, WeeklyRun
from repro.trmp.stage_worker import StageWorker, reject
from repro.trmp.daily import preference_stage


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
    #: trained, ``checkpoint`` commits and ``worker_reap``); sums to
    #: ``elapsed_seconds`` less the graph's open and activation.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Busy seconds of stages that ran in the stage worker beside another
    #: stage (week 0: ``cooccurrence_embedding``); ``{}`` when none did.
    overlapped_seconds: dict[str, float] = field(default_factory=dict)
    #: True when the activation check refused the hot-swap: the artifact
    #: was published to the registry but serving stayed on the old
    #: generation.
    swap_rejected: bool = False
    swap_rejected_reason: str | None = None
    #: Checkpoint run id for this refresh (``weekly-<week>``).
    run_id: str | None = None
    #: Stages loaded from checkpoints instead of recomputed (resume path).
    resumed_stages: list[str] = field(default_factory=list)
    #: Content digest of the published ranked graph — identical for a
    #: resumed and an uninterrupted run of the same seeded refresh.
    artifact_digest: str | None = None


class EGLSystem:
    """End-to-end Entity Graph Learning system over a synthetic world."""

    def __init__(
        self,
        world: World,
        config: TRMPConfig | None = None,
        store_path: str | Path | None = None,
        *,
        artifact_root: str | Path,
        cache_size: int = 256,
        obs: Observability | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.world = world
        self.obs = obs or Observability()
        self.faults = faults
        self.feedback = FeedbackRecorder()
        del store_path  # unread; kept while benchmarks/e2e/server.py still passes it
        self.registry = ArtifactRegistry(root=artifact_root, faults=faults)
        self.pipeline = TRMPipeline(
            world, config, obs=self.obs,
            checkpoints=self.registry.checkpoints, faults=faults,
        )
        self.runtime = ServingRuntime(cache_size=cache_size, obs=self.obs)
        # Every drift report — from refresh-driven swaps *and* direct
        # runtime activations — lands in the registry.
        self.runtime.on_drift_report = self.registry.attach_drift_report
        # Per-generation footprint gauges (disk bytes, generation counts)
        # exported via read-time collectors and ``/profile``.
        self.resources = ResourceAccountant(
            metrics=self.obs.metrics, registry=self.registry
        )

    # ------------------------------------------------------------------
    # Offline stage
    # ------------------------------------------------------------------
    def _publish_week_graph(self, run: WeeklyRun, resume: bool) -> dict:
        """Publish one week's mined graph; returns a path-free summary of
        the registered generation (the freeze-stage payload).

        On resume, a generation this run already published — the crash
        fell between the publish and the freeze checkpoint — is reused
        instead of being published a second time.
        """
        tag = f"week-{run.week}"
        record = self.registry.latest("graph")
        if not (
            resume
            and record is not None
            and record.tag == tag
            and record.edges == run.ranked_graph.num_edges
        ):
            record = self.registry.publish_graph(run.ranked_graph, tag=tag)
        return {
            "version": record.version,
            "tag": record.tag,
            "digest": graph_digest(run.ranked_graph),
        }

    def weekly_refresh(
        self, events: BehaviorLog, resume: bool = False
    ) -> RefreshReport:
        """Run TRMP on a weekly data drop and publish the new entity graph.

        Fault tolerance: every stage checkpoints into the registry under
        ``weekly-<week>`` as it completes, so ``resume=True`` after a crash
        recomputes only what the crash interrupted (seeded stages make the
        result byte-identical — compare ``RefreshReport.artifact_digest``).
        A storage error raises to the caller; an activation refused by
        the activation check leaves the artifact published while serving
        stays on the generation it had, and keeps the marketer feedback for
        the next week.
        """
        clock = self.obs.clock
        start = clock.perf()
        feedback_pairs = self.feedback.pairs()
        run_id = f"weekly-{len(self.pipeline.weekly_runs):04d}"
        # One block of stage workers for the whole refresh: the model
        # worker that fits ALPC also fits the ensemble.
        with self.pipeline.workers():
            run: WeeklyRun = self.pipeline.run_week(
                events, feedback_pairs=feedback_pairs, run_id=run_id, resume=resume
            )

            # Freeze + register the mined graph as its own checkpointed
            # stage: a crash between publication and activation resumes
            # onto the already-registered generation.
            frozen = self.pipeline.freeze_artifacts(
                run_id, lambda: self._publish_week_graph(run, resume), resume=resume
            )
            ensemble_trained = False
            if len(self.pipeline.weekly_runs) >= 2:
                self.pipeline.train_ensemble(run_id=run_id, resume=resume)
                ensemble_trained = True
            lexicon = self.pipeline.lexicon

        # Hot-swap: build the complete new reasoner, then activate it —
        # requests already in flight finish on the previous version.
        reasoner = GraphReasoner(
            self.registry.open_graph(frozen["version"]),
            self.pipeline.entity_dict,
            lexicon,
        )
        swap_rejected = False
        swap_rejected_reason = None
        try:
            self.runtime.activate_graph(
                reasoner, frozen["version"], tag=frozen["tag"]
            )
        except DriftGateError as error:
            # The artifact stays published (evidence!) but serving keeps
            # the old generation; its drift report, if any, is already
            # in the registry.
            swap_rejected = True
            swap_rejected_reason = str(error)
        else:
            # A served generation trained on this feedback. A crash or a
            # refused swap before here keeps it for the next run.
            self.feedback.retire(feedback_pairs)
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
        )

    def _publish_daily_preferences(
        self, events: BehaviorLog
    ) -> tuple[ArtifactRecord, int]:
        """Build and publish the day's preference index; returns the
        registry record and the number of covered users.

        The extraction, the build and the artifact write run in a stage
        worker, into the directory the registry reserved; this process
        only appends the record once the worker has replied. A worker that
        fails, or a reply that fails its check, leaves no directory.
        """
        embeddings = self.pipeline.entity_embeddings()
        num_users = self.world.num_users
        slot = self.registry.reserve_preferences()
        with removed_on_failure(slot.directory):
            with StageWorker() as worker:
                covered, _ = worker.run(
                    preference_stage, self.pipeline.extractor, events, embeddings,
                    num_users, slot.directory, slot.tag,
                )
            if not (type(covered) is int and 0 <= covered <= num_users):
                raise reject(repr(covered), f"a covered-user count in [0, {num_users}]")
            record = self.registry.commit_preferences(slot)
        return record, covered

    def daily_preference_refresh(self, events: BehaviorLog) -> int:
        """Recompute user embeddings/preferences; returns #covered users."""
        clock = self.obs.clock
        start = clock.perf()
        record, covered = self._publish_daily_preferences(events)
        try:
            # Serve the registry's artifact, every array proven at open.
            serve_store = self.registry.open_preferences(record.version)
        except CorruptArtifactError:
            pass  # artifact quarantined; the previous generation keeps serving
        else:
            try:
                self.runtime.activate_preferences(
                    serve_store, record.version, tag=record.tag
                )
            except DriftGateError:
                pass  # published but not activated; report already filed
        metrics = self.obs.metrics
        metrics.counter("offline_refreshes_total", job="daily").inc()
        metrics.histogram("offline_refresh_seconds", job="daily").observe(
            clock.perf() - start
        )
        return covered

    def rollback(self, kind: str = "graph") -> dict:
        """Swap serving back to the previous generation of ``kind``.

        The escape hatch when a bad artifact slipped past the activation check:
        one atomic reference swap, no recomputation. Returns the runtime's
        post-rollback version map.
        """
        return self.runtime.rollback(kind)

    # ------------------------------------------------------------------
    # Marketer feedback (the weekly refresh trains on it)
    # ------------------------------------------------------------------
    def record_choice(self, seed_entity_id: int, chosen_entity_ids: list[int]) -> None:
        """Marketer kept these entities — high-confidence feedback (§II-B)."""
        self.feedback.record_expansion_choice(seed_entity_id, chosen_entity_ids)
