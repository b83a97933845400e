"""TRMP pipeline: candidate generation → ALPC ranking → ensemble (§III-B).

One :class:`TRMPipeline` instance owns a world's static pieces (Entity Dict,
semantic encoder — "BERT pre-trained on Wikipedia" is static in the paper
too) and can process any number of weekly data drops. Each weekly run
retrains the co-occurrence embeddings and the ALPC ranking model, mines an
entity graph, and contributes a snapshot to the ensemble — exactly the
weekly refresh cadence described in §II-B.

This process orchestrates; it does not train. Every stage that trains —
NER with the skip-gram, the semantic pretrain, the split with the ALPC fit
and the ranked graph, the ensemble — runs as one function of
:mod:`repro.trmp.stages` in a :class:`~repro.trmp.stage_worker.StageWorker`,
and its reply is checked before it is used or checkpointed. Candidate
generation (a k-NN over two small matrices) stays here.

Fault tolerance: when a :class:`~repro.resilience.CheckpointStore` is
attached, each stage's output (cooccurrence, candidates, ranked, ensemble,
artifact_freeze) is checkpointed under the run id the moment it completes,
and ``run_week(..., resume=True)`` reloads completed stages instead of
recomputing them. Every training stage is seeded, so a resumed run is
byte-identical (same checkpoint digests) to an uninterrupted one.

Timing: :attr:`TRMPipeline.stage_seconds` also holds ``checkpoint`` (every
checkpoint commit or load of the refresh; each fsyncs) and ``worker_reap``
(killing and reaping the stage workers), so the stages sum to the refresh's
wall time less only the graph's open and activation.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.datasets.behavior import BehaviorLog
from repro.datasets.splits import LinkPredictionSplit
from repro.datasets.world import World
from repro.embeddings.semantic import SemanticEncoderConfig, entity_descriptions
from repro.embeddings.skipgram import SkipGramConfig
from repro.errors import NotFittedError
from repro.graph.entity_graph import EntityGraph
from repro.obs import Observability
from repro.resilience import CheckpointStore, FaultInjector
from repro.text.entity_dict import EntityDict
from repro.text.lexicon import Lexicon
from repro.text.sequence_extractor import EntitySequenceExtractor
from repro.text.vocab import Vocab
from repro.trmp.alpc import ALPCConfig, ALPCLinkPredictor
from repro.trmp.candidate import (
    CandidateGenerationConfig,
    CandidateGenerator,
    CandidateResult,
)
from repro.trmp.ensemble import EnsembleConfig, EnsembleLinkPredictor
from repro.trmp.stage_worker import StageWorker, checked_matrix, reject
from repro.trmp.stages import (
    cooccurrence_stage,
    ensemble_stage,
    lexicon_stage,
    ranking_stage,
)


@dataclass
class TRMPConfig:
    """End-to-end configuration of the three-stage procedure."""

    skipgram: SkipGramConfig = field(default_factory=lambda: SkipGramConfig(epochs=12))
    semantic: SemanticEncoderConfig = field(default_factory=SemanticEncoderConfig)
    candidate: CandidateGenerationConfig = field(default_factory=CandidateGenerationConfig)
    alpc: ALPCConfig = field(default_factory=ALPCConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    test_fraction: float = 0.1
    train_negative_ratio: float = 3.0
    #: How many trailing weekly snapshots the ensemble fuses.
    ensemble_window: int = 4
    #: Relations must clear both endpoints' adaptive thresholds AND this
    #: calibrated link probability to enter the published entity graph.
    ranked_min_probability: float = 0.7
    seed: int = 0


@dataclass
class WeeklyRun:
    """Everything produced by one weekly offline refresh."""

    week: int
    candidate: CandidateResult
    split: LinkPredictionSplit
    alpc: ALPCLinkPredictor
    ranked_graph: EntityGraph
    #: Wall-time per TRMP stage for this run (ensemble is recorded on the
    #: pipeline after :meth:`TRMPipeline.train_ensemble`).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: The checkpoint run id this week was produced under (None when the
    #: pipeline runs without a checkpoint store).
    run_id: str | None = None
    #: Stages loaded from checkpoints rather than recomputed.
    resumed_stages: list[str] = field(default_factory=list)
    #: Stage → content digest of the checkpointed payload (the idempotency
    #: evidence: identical seeded runs produce identical digests).
    stage_digests: dict[str, str] = field(default_factory=dict)

    @property
    def snapshot_embeddings(self) -> np.ndarray:
        return self.alpc.node_embeddings


class TRMPipeline:
    """Drives the three TRMP stages over weekly behavior-log drops."""

    def __init__(
        self,
        world: World,
        config: TRMPConfig | None = None,
        obs: Observability | None = None,
        checkpoints: CheckpointStore | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.world = world
        self.config = config or TRMPConfig()
        self.obs = obs or Observability()
        self.entity_dict = EntityDict.from_world(world)
        self.extractor = EntitySequenceExtractor(self.entity_dict)
        self._lexicon: Lexicon | None = None
        self.weekly_runs: list[WeeklyRun] = []
        self.ensemble: EnsembleLinkPredictor | None = None
        self._stage_seconds: dict[str, float] = {}
        self._overlapped_seconds: dict[str, float] = {}
        #: Per-entity occurrence counts of the latest drop (tail-entity
        #: evidence for the candidate stage).
        self._last_entity_counts: np.ndarray | None = None
        #: Optional per-stage checkpointing (attached by EGLSystem so the
        #: checkpoints live next to the artifact registry).
        self.checkpoints = checkpoints
        self.faults = faults
        #: The open :meth:`workers` scope and its model worker, if any.
        self._scope: ExitStack | None = None
        self._model_worker: StageWorker | None = None

    # ------------------------------------------------------------------
    # Stage workers
    # ------------------------------------------------------------------
    @contextmanager
    def workers(self):
        """Keep the model worker started inside alive until the outermost
        ``workers()`` block exits, then kill and reap it.

        Inside one block the model worker — the one that pretrains — also
        fits ALPC and the ensemble, so one weekly refresh starts two
        processes: that one and the NER + skip-gram worker, which lives for
        its stage only. Every method that runs a stage opens a block of its
        own, so called alone it leaves no process behind either.
        """
        if self._scope is not None:
            yield
            return
        with ExitStack() as scope:
            self._scope = scope
            try:
                yield
            finally:
                self._scope = self._model_worker = None

    def _model(self) -> StageWorker:
        """The worker for the pretrain, ALPC and the ensemble; never the
        skip-gram's (ALPC ran in a slow BLAS mode in that process)."""
        if self._model_worker is None:
            self._model_worker = self._scope.enter_context(self._reaped(StageWorker()))
        return self._model_worker

    @contextmanager
    def _reaped(self, worker: StageWorker):
        """``worker`` for the block, then killed and reaped, timed as the
        ``worker_reap`` stage (a process that held a model takes a while
        to tear down)."""
        try:
            yield worker
        finally:
            with self._stage("worker_reap"):
                worker.__exit__(None, None, None)

    def _result(
        self, worker: StageWorker, stage: str, *steps: str, since: float | None = None
    ) -> tuple[object, dict[str, float]]:
        """Wait for ``worker``'s reply, timed as ``stage`` from ``since``
        (the caller's ``clock.perf()`` before it started the worker or
        sent the request; default now).

        The worker's busy seconds in each of ``steps`` become stages of
        their own, taken out of the wait, so the stage seconds still sum
        to the refresh's wall time.
        """
        clock = self.obs.clock
        start = clock.perf() if since is None else since
        try:
            payload, seconds = worker.result()
        except BaseException:
            self._record(stage, clock.perf() - start)
            raise
        waited = clock.perf() - start
        for step in steps:
            part = min(seconds.get(step, 0.0), waited)
            self._record(step, part)
            waited -= part
        self._record(stage, waited)
        return payload, seconds

    @contextmanager
    def _stage(self, name: str):
        """Time one TRMP stage; feeds the weekly stage breakdown and the
        ``pipeline_stage_seconds`` histogram."""
        clock = self.obs.clock
        start = clock.perf()
        try:
            yield
        finally:  # a stage that raises still took its seconds
            self._record(name, clock.perf() - start)

    def _record(self, name: str, seconds: float) -> None:
        # A stage timed more than once in one refresh (``checkpoint``: one
        # commit per stage) adds up.
        self._stage_seconds[name] = self._stage_seconds.get(name, 0.0) + seconds
        self._observe_stage(name, seconds)

    def _observe_stage(self, name: str, seconds: float) -> None:
        self.obs.metrics.histogram(
            "pipeline_stage_seconds", help="Offline TRMP stage wall time",
            stage=name,
        ).observe(seconds)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Stage → wall seconds it *added* to the most recent refresh
        (incl. ensemble, checkpoint commits and worker reaps); the values
        sum to the refresh's elapsed time less untimed glue, also when
        stages overlapped."""
        return dict(self._stage_seconds)

    @property
    def overlapped_seconds(self) -> dict[str, float]:
        """Stage → busy seconds it spent in the stage worker, beside
        another stage, in the most recent refresh; empty when nothing
        overlapped. Not part of :attr:`stage_seconds`' sum."""
        return dict(self._overlapped_seconds)

    # ------------------------------------------------------------------
    # Static pieces
    # ------------------------------------------------------------------
    @property
    def lexicon(self) -> Lexicon:
        """The semantic encoder's vocabulary, token table and ``E^Se``,
        pretrained in the model worker on first use."""
        if self._lexicon is None:
            start = self.obs.clock.perf()
            with self.workers():
                self._submit_pretrain()
                self._receive_pretrain(since=start)
        return self._lexicon

    @property
    def e_semantic(self) -> np.ndarray:
        return self.lexicon.e_semantic

    def _submit_pretrain(self) -> None:
        semantic = self.config.semantic
        self._model().submit(
            lexicon_stage, entity_descriptions(self.world, semantic), semantic
        )

    def _receive_pretrain(self, since: float) -> None:
        lexicon, _ = self._result(self._model(), "semantic_pretrain", since=since)
        if not (isinstance(lexicon, Lexicon) and isinstance(lexicon.vocab, Vocab)):
            raise reject(type(lexicon).__name__, "a Lexicon")
        table = lexicon.token_table
        dim = table.shape[1] if isinstance(table, np.ndarray) and table.ndim == 2 else -1
        checked_matrix(table, (len(lexicon.vocab), dim), "the token table")
        checked_matrix(lexicon.e_semantic, (self.world.num_entities, dim), "E^Se")
        self._lexicon = lexicon

    # ------------------------------------------------------------------
    # Stage I
    # ------------------------------------------------------------------
    def build_cooccurrence(self, events: BehaviorLog) -> np.ndarray:
        """NER and skip-gram over this drop, in a worker → ``E^Co``.

        Also records per-entity occurrence counts (evidence for the
        candidate stage's tail-entity gating).

        While the semantic encoder is still untrained (week 0) the model
        worker pretrains it meanwhile — the two share no state before the
        candidate stage — so the pair costs the longer of the two, not
        their sum. ``semantic_pretrain`` is then the wait for the model
        worker and ``cooccurrence_embedding`` the wait for this one
        afterwards; this worker's own busy time goes to
        :attr:`overlapped_seconds`. Otherwise the wait is split into
        ``ner_extraction`` (the worker's NER) and ``cooccurrence_embedding``.
        """
        num_entities = self.world.num_entities
        start = self.obs.clock.perf()
        with self.workers():
            overlap = self._lexicon is None
            if overlap:  # the longer of the two starts first
                self._submit_pretrain()
            # Its own ``with``: reaped when this stage ends, not with the
            # model worker at the end of the refresh.
            with self._reaped(StageWorker()) as worker:
                worker.submit(
                    cooccurrence_stage, self.extractor, events, num_entities,
                    self.config.skipgram,
                )
                if not overlap:
                    payload, _ = self._result(
                        worker, "cooccurrence_embedding", "ner_extraction", since=start
                    )
                else:
                    self._receive_pretrain(since=start)
                    payload, seconds = self._result(worker, "cooccurrence_embedding")
                    busy_seconds = sum(seconds.values())
                    self._overlapped_seconds["cooccurrence_embedding"] = busy_seconds
                    self._observe_stage("cooccurrence_embedding.worker", busy_seconds)
        if not (isinstance(payload, dict) and set(payload) == {"e_co", "counts"}):
            raise reject(type(payload).__name__, "{e_co, counts}")
        e_co = checked_matrix(
            payload["e_co"], (num_entities, self.config.skipgram.dim), "E^Co"
        )
        self._last_entity_counts = checked_matrix(
            payload["counts"], (num_entities,), "the occurrence counts"
        )
        return e_co

    def build_candidate(self, e_cooccurrence: np.ndarray) -> CandidateResult:
        e_semantic = self.e_semantic  # lazy pretrain is its own stage, not this one's
        with self._stage("candidate_generation"):
            generator = CandidateGenerator(self.config.candidate)
            return generator.generate(
                e_cooccurrence, e_semantic,
                cooccurrence_counts=self._last_entity_counts,
            )

    # ------------------------------------------------------------------
    # Stage II
    # ------------------------------------------------------------------
    def rank_candidates(
        self,
        candidate: CandidateResult,
        feedback_pairs: np.ndarray | None = None,
        seed: int | None = None,
    ) -> dict:
        """Split, ALPC fit and ranked graph, in the model worker:
        ``{"alpc", "split", "ranked"}``.

        ``feedback_pairs`` are marketer-confirmed relations from the online
        stage (§II-B Remark), appended to the training positives. The
        ranked graph keeps the candidate relations that clear both
        endpoints' adaptive thresholds and ``ranked_min_probability``.
        """
        cfg = self.config
        alpc_config = replace(cfg.alpc, seed=cfg.alpc.seed if seed is None else seed)
        start = self.obs.clock.perf()
        with self.workers():
            worker = self._model()
            worker.submit(
                ranking_stage, candidate, feedback_pairs, alpc_config,
                cfg.seed if seed is None else seed,
                cfg.test_fraction, cfg.train_negative_ratio, cfg.ranked_min_probability,
            )
            payload, _ = self._result(worker, "alpc_ranking", "graph_ranking", since=start)
        num_nodes = candidate.graph.num_nodes
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("alpc"), ALPCLinkPredictor)
            and isinstance(payload.get("split"), LinkPredictionSplit)
            and isinstance(payload.get("ranked"), EntityGraph)
            and len(payload) == 3
            and payload["ranked"].num_nodes == num_nodes
        ):
            raise reject(type(payload).__name__, "{alpc, split, ranked} over the candidates")
        z = payload["alpc"].node_embeddings
        checked_matrix(z, (num_nodes, z.shape[-1]), "the ALPC snapshot")
        checked_matrix(payload["ranked"].weight, payload["ranked"].weight.shape, "edge weights")
        return payload

    # ------------------------------------------------------------------
    # Weekly orchestration + Stage III
    # ------------------------------------------------------------------
    def _stage_checkpointed(
        self,
        run_id: str,
        stage: str,
        resume: bool,
        run_state: dict,
        compute,
    ):
        """Run one stage through the checkpoint store.

        On resume, a completed stage's payload is loaded (digest-proven)
        instead of recomputed. Otherwise the stage runs, its payload is
        checkpointed, and the ``pipeline.<stage>`` fault seam fires *after*
        the commit: a scripted kill there models a crash between stages,
        which is exactly what resume must survive.
        """
        ckpt = self.checkpoints
        if ckpt is not None and resume and ckpt.has(run_id, stage):
            with self._stage("checkpoint"):
                payload = ckpt.get(run_id, stage)
            run_state["resumed"].append(stage)
            run_state["digests"][stage] = ckpt.digest(run_id, stage)
            return payload
        payload = compute()
        if ckpt is not None:
            with self._stage("checkpoint"):
                digest = ckpt.put(run_id, stage, payload)
            run_state["digests"][stage] = digest
            if self.faults is not None:
                self.faults.check(f"pipeline.{stage}")
        return payload

    def run_week(
        self,
        events: BehaviorLog,
        feedback_pairs: np.ndarray | None = None,
        run_id: str | None = None,
        resume: bool = False,
    ) -> WeeklyRun:
        """One full offline refresh on a weekly data drop.

        With a checkpoint store attached, each stage commits its output
        under ``run_id`` (default ``weekly-<week>``) as it completes;
        ``resume=True`` reloads completed stages, so a refresh killed
        mid-run finishes from where it stopped — with identical results,
        since every stage is seeded.
        """
        week = len(self.weekly_runs)
        run_id = run_id or f"weekly-{week:04d}"
        self._stage_seconds = {}
        self._overlapped_seconds = {}
        run_state: dict = {"resumed": [], "digests": {}}
        with self.workers():
            co_payload = self._stage_checkpointed(
                run_id, "cooccurrence", resume, run_state,
                lambda: self._compute_cooccurrence(events),
            )
            e_co = co_payload["e_co"]
            # Tail-entity evidence must survive a resume: the candidate stage
            # reads it off the pipeline.
            self._last_entity_counts = co_payload["counts"]
            candidate = self._stage_checkpointed(
                run_id, "candidates", resume, run_state,
                lambda: self.build_candidate(e_co),
            )
            ranked_payload = self._stage_checkpointed(
                run_id, "ranked", resume, run_state,
                lambda: self.rank_candidates(
                    candidate, feedback_pairs, seed=self.config.seed + week
                ),
            )
        run = WeeklyRun(
            week=week,
            candidate=candidate,
            split=ranked_payload["split"],
            alpc=ranked_payload["alpc"],
            ranked_graph=ranked_payload["ranked"],
            stage_seconds=dict(self._stage_seconds),
            run_id=run_id,
            resumed_stages=run_state["resumed"],
            stage_digests=run_state["digests"],
        )
        self.weekly_runs.append(run)
        return run

    def _compute_cooccurrence(self, events: BehaviorLog) -> dict:
        e_co = self.build_cooccurrence(events)
        return {"e_co": e_co, "counts": self._last_entity_counts}

    def freeze_artifacts(self, run_id: str, publish, resume: bool = False) -> dict:
        """Freeze + register the run's servable artifacts as a stage.

        ``publish`` performs the actual registry publication (which writes
        the CSR graph artifact and, for preferences, the memmap directory)
        and returns a *path-free* summary — version, tag, format, content
        digest. That summary is what gets checkpointed under ``run_id``: a
        refresh killed between publication and activation resumes onto the
        already-registered generation instead of publishing a duplicate.

        The stage's digest is deliberately kept out of
        :attr:`WeeklyRun.stage_digests` — those are compared across
        registry roots by the chaos suite, and the freeze payload includes
        the registry-assigned version.
        """
        state: dict = {"resumed": [], "digests": {}}

        def timed_publish() -> dict:
            with self._stage("artifact_freeze"):
                return publish()

        return self._stage_checkpointed(
            run_id, "artifact_freeze", resume, state, timed_publish
        )

    def train_ensemble(
        self, run_id: str | None = None, resume: bool = False
    ) -> EnsembleLinkPredictor:
        """Stage III: fuse the trailing weekly snapshots (Eq. 6).

        Checkpointed under ``run_id`` like the weekly stages when a store
        is attached, so a crash after ensemble training resumes for free.
        """
        if not self.weekly_runs:
            raise NotFittedError("no weekly runs available for the ensemble")
        ckpt = self.checkpoints
        run_id = run_id or self.weekly_runs[-1].run_id
        if ckpt is not None and run_id is not None and resume and ckpt.has(run_id, "ensemble"):
            with self._stage("checkpoint"):
                self.ensemble = ckpt.get(run_id, "ensemble")
            run = self.weekly_runs[-1]
            run.resumed_stages.append("ensemble")
            run.stage_digests["ensemble"] = ckpt.digest(run_id, "ensemble")
            return self.ensemble
        window = self.weekly_runs[-self.config.ensemble_window :]
        snapshots = [run.snapshot_embeddings for run in window]
        start = self.obs.clock.perf()
        with self.workers():
            worker = self._model()
            worker.submit(ensemble_stage, snapshots, window[-1].split, self.config.ensemble)
            ensemble, _ = self._result(worker, "ensemble", since=start)
        if not isinstance(ensemble, EnsembleLinkPredictor):
            raise reject(type(ensemble).__name__, "an EnsembleLinkPredictor")
        num_nodes, dim = snapshots[-1].shape
        checked_matrix(
            ensemble.entity_embeddings(), (num_nodes, len(snapshots) * dim), "h_e"
        )
        self.ensemble = ensemble
        if ckpt is not None and run_id is not None:
            with self._stage("checkpoint"):
                digest = ckpt.put(run_id, "ensemble", ensemble)
            self.weekly_runs[-1].stage_digests["ensemble"] = digest
            if self.faults is not None:
                self.faults.check("pipeline.ensemble")
        return ensemble

    def entity_embeddings(self) -> np.ndarray:
        """``h_e`` for the user-preference module: ensemble concat if
        available, else the latest ALPC snapshot."""
        if self.ensemble is not None:
            return self.ensemble.entity_embeddings()
        if self.weekly_runs:
            return self.weekly_runs[-1].snapshot_embeddings
        raise NotFittedError("pipeline has not processed any data yet")

    def latest_graph(self) -> EntityGraph:
        if not self.weekly_runs:
            raise NotFittedError("pipeline has not processed any data yet")
        return self.weekly_runs[-1].ranked_graph
