"""TRMP pipeline: candidate generation → ALPC ranking → ensemble (§III-B).

One :class:`TRMPipeline` instance owns a world's static pieces (Entity Dict,
semantic encoder — "BERT pre-trained on Wikipedia" is static in the paper
too) and can process any number of weekly data drops. Each weekly run
retrains the co-occurrence embeddings and the ALPC ranking model, mines an
entity graph, and contributes a snapshot to the ensemble — exactly the
weekly refresh cadence described in §II-B.

Fault tolerance: when a :class:`~repro.resilience.CheckpointStore` is
attached, each stage's output (cooccurrence, candidates, ranked, ensemble,
artifact_freeze) is checkpointed under the run id the moment it completes — through the
attached :class:`~repro.resilience.RetryPolicy` when storage is flaky —
and ``run_week(..., resume=True)`` reloads completed stages instead of
recomputing them. Every training stage is seeded, so a resumed run is
byte-identical (same checkpoint digests) to an uninterrupted one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.behavior import BehaviorEvent
from repro.datasets.splits import LinkPredictionSplit, make_link_prediction_split
from repro.datasets.world import World
from repro.embeddings.semantic import SemanticEncoderConfig, SemanticEntityEncoder
from repro.embeddings.skipgram import SkipGramConfig, fit_cooccurrence, occurrence_counts
from repro.errors import ConfigError, NotFittedError
from repro.graph.entity_graph import RELATION_RANKED, EntityGraph
from repro.obs import Observability
from repro.resilience import CheckpointStore, FaultInjector, RetryPolicy
from repro.rng import ensure_rng
from repro.text.entity_dict import EntityDict
from repro.text.sequence_extractor import EntitySequenceExtractor
from repro.trmp.alpc import ALPCConfig, ALPCLinkPredictor
from repro.trmp.candidate import (
    CandidateGenerationConfig,
    CandidateGenerator,
    CandidateResult,
)
from repro.trmp.ensemble import EnsembleConfig, EnsembleLinkPredictor


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
        retry: RetryPolicy | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.world = world
        self.config = config or TRMPConfig()
        self.obs = obs or Observability()
        self.entity_dict = EntityDict.from_world(world)
        self.extractor = EntitySequenceExtractor(self.entity_dict)
        self._semantic_encoder: SemanticEntityEncoder | None = None
        self._e_semantic: np.ndarray | None = None
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
        self.retry = retry
        self.faults = faults

    @contextmanager
    def _stage(self, name: str):
        """Time one TRMP stage; feeds the weekly stage breakdown and the
        ``pipeline_stage_seconds`` histogram."""
        clock = self.obs.clock
        start = clock.perf()
        try:
            yield
        finally:  # a stage that raises still took its seconds
            elapsed = clock.perf() - start
            self._stage_seconds[name] = elapsed
            self._observe_stage(name, elapsed)

    def _observe_stage(self, name: str, seconds: float) -> None:
        self.obs.metrics.histogram(
            "pipeline_stage_seconds", help="Offline TRMP stage wall time",
            stage=name,
        ).observe(seconds)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Stage → wall seconds it *added* to the most recent refresh
        (incl. ensemble); the values sum to the refresh's elapsed time
        less untimed glue, also when stages overlapped."""
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
    def semantic_encoder(self) -> SemanticEntityEncoder:
        if self._semantic_encoder is None:
            with self._stage("semantic_pretrain"):
                self._semantic_encoder = SemanticEntityEncoder(
                    self.world, self.config.semantic
                ).pretrain()
        return self._semantic_encoder

    @property
    def e_semantic(self) -> np.ndarray:
        if self._e_semantic is None:
            self._e_semantic = self.semantic_encoder.encode_entities()
        return self._e_semantic

    # ------------------------------------------------------------------
    # Stage I
    # ------------------------------------------------------------------
    def build_cooccurrence(self, events: list[BehaviorEvent]) -> np.ndarray:
        """Skip-gram over this drop's extracted entity sequences → ``E^Co``.

        Also records per-entity occurrence counts (evidence for the
        candidate stage's tail-entity gating).

        While the semantic encoder is still untrained (week 0) and a second
        CPU is available, the fit runs in a stage worker beside the
        encoder's pretrain — the two share no state before the candidate
        stage — so the pair costs the longer of the two, not their sum.
        ``semantic_pretrain`` is then the parent's time in it and
        ``cooccurrence_embedding`` the wait for the worker afterwards; the
        worker's own busy time goes to :attr:`overlapped_seconds`. Either
        way it is :func:`fit_cooccurrence` on the same inputs: same bytes.
        """
        # Imported here: the worker runs that module as ``__main__`` after
        # importing this package, which must not have loaded it already.
        from repro.trmp.stage_worker import StageWorker

        overlap = self._semantic_encoder is None and len(os.sched_getaffinity(0)) >= 2
        # Started before NER so that its interpreter start-up and imports
        # are off the critical path.
        with StageWorker() if overlap else nullcontext() as worker:
            with self._stage("ner_extraction"):
                sequences = self.extractor.corpus_sequences(events)
            if not sequences:
                raise ConfigError("no entity sequences extracted from the events")
            num_entities = self.world.num_entities
            self._last_entity_counts = occurrence_counts(sequences, num_entities)
            if worker is None:
                with self._stage("cooccurrence_embedding"):
                    return fit_cooccurrence(num_entities, self.config.skipgram, sequences)
            worker.send(num_entities, self.config.skipgram, sequences)
            self.semantic_encoder  # pretrains, as its own stage, beside the worker
            with self._stage("cooccurrence_embedding"):
                e_co, busy_seconds = worker.receive()
        self._overlapped_seconds["cooccurrence_embedding"] = busy_seconds
        self._observe_stage("cooccurrence_embedding.worker", busy_seconds)
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
    def train_ranking(
        self,
        candidate: CandidateResult,
        feedback_pairs: np.ndarray | None = None,
        seed: int | None = None,
    ) -> tuple[ALPCLinkPredictor, LinkPredictionSplit]:
        """Train ALPC on the candidate graph's link-prediction split.

        ``feedback_pairs`` are marketer-confirmed relations from the online
        stage (§II-B Remark); they are appended to the training positives as
        high-confidence supervision.
        """
        cfg = self.config
        with self._stage("alpc_ranking"):
            rng = ensure_rng(cfg.seed if seed is None else seed)
            split = make_link_prediction_split(
                candidate.graph,
                test_fraction=cfg.test_fraction,
                train_negative_ratio=cfg.train_negative_ratio,
                rng=rng,
            )
            if feedback_pairs is not None and len(feedback_pairs):
                extra = np.asarray(feedback_pairs, dtype=np.int64).reshape(-1, 2)
                split.train_pos = np.concatenate([split.train_pos, extra])
            alpc_cfg = ALPCConfig(**{**vars(cfg.alpc)})
            if seed is not None:
                alpc_cfg.seed = seed
            alpc = ALPCLinkPredictor(alpc_cfg)
            alpc.fit(split, candidate.node_features, self.e_semantic)
        return alpc, split

    def ranked_graph(
        self, candidate: CandidateResult, alpc: ALPCLinkPredictor
    ) -> EntityGraph:
        """Stage II output graph: candidate relations accepted by ALPC.

        Acceptance uses the two-sided adaptive threshold; edge weights are
        the calibrated link probabilities.
        """
        with self._stage("graph_ranking"):
            return self._ranked_graph(candidate, alpc)

    def _ranked_graph(
        self, candidate: CandidateResult, alpc: ALPCLinkPredictor
    ) -> EntityGraph:
        lo, hi = candidate.graph.canonical_pairs()
        pairs = np.stack([lo, hi], axis=1)
        probabilities = alpc.predict_pairs(pairs)
        accepted = alpc.accept_pairs(pairs)
        accepted &= probabilities >= self.config.ranked_min_probability
        # Floor on graph size: a weekly model that under-fits must not
        # publish an empty graph — fall back to the highest-probability
        # fifth of the candidates so the online stage keeps serving.
        min_keep = max(1, len(pairs) // 5)
        if accepted.sum() < min_keep:
            top = np.argsort(-probabilities)[:min_keep]
            accepted = np.zeros(len(pairs), dtype=bool)
            accepted[top] = True
        kept = pairs[accepted]
        weights = probabilities[accepted]
        return EntityGraph.from_edge_list(
            candidate.graph.num_nodes,
            [tuple(p) for p in kept],
            weights,
            [RELATION_RANKED] * len(kept),
        )

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
        checkpointed — through the retry policy when one is attached, so a
        flaky store doesn't lose the work — and the ``pipeline.<stage>``
        fault seam fires *after* the commit: a scripted kill there models a
        crash between stages, which is exactly what resume must survive.
        """
        ckpt = self.checkpoints
        if ckpt is not None and resume and ckpt.has(run_id, stage):
            payload = ckpt.get(run_id, stage)
            run_state["resumed"].append(stage)
            run_state["digests"][stage] = ckpt.digest(run_id, stage)
            return payload
        payload = compute()
        if ckpt is not None:
            put = lambda: ckpt.put(run_id, stage, payload)
            digest = put() if self.retry is None else self.retry.call(
                put, seam=f"checkpoint.{stage}"
            )
            run_state["digests"][stage] = digest
            if self.faults is not None:
                self.faults.check(f"pipeline.{stage}")
        return payload

    def run_week(
        self,
        events: list[BehaviorEvent],
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
        if self._e_semantic is None and "candidates" in run_state["resumed"]:
            self._e_semantic = candidate.e_semantic
        ranked_payload = self._stage_checkpointed(
            run_id, "ranked", resume, run_state,
            lambda: self._compute_ranked(candidate, feedback_pairs, week),
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

    def _compute_cooccurrence(self, events: list[BehaviorEvent]) -> dict:
        e_co = self.build_cooccurrence(events)
        return {"e_co": e_co, "counts": self._last_entity_counts}

    def _compute_ranked(
        self,
        candidate: CandidateResult,
        feedback_pairs: np.ndarray | None,
        week: int,
    ) -> dict:
        alpc, split = self.train_ranking(
            candidate, feedback_pairs=feedback_pairs, seed=self.config.seed + week
        )
        ranked = self.ranked_graph(candidate, alpc)
        return {"alpc": alpc, "split": split, "ranked": ranked}

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
        with self._stage("artifact_freeze"):
            return self._stage_checkpointed(
                run_id, "artifact_freeze", resume, state, publish
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
            self.ensemble = ckpt.get(run_id, "ensemble")
            run = self.weekly_runs[-1]
            run.resumed_stages.append("ensemble")
            run.stage_digests["ensemble"] = ckpt.digest(run_id, "ensemble")
            return self.ensemble
        with self._stage("ensemble"):
            window = self.weekly_runs[-self.config.ensemble_window :]
            snapshots = [run.snapshot_embeddings for run in window]
            ensemble = EnsembleLinkPredictor(self.config.ensemble)
            ensemble.fit(snapshots, window[-1].split)
        self.ensemble = ensemble
        if ckpt is not None and run_id is not None:
            put = lambda: ckpt.put(run_id, "ensemble", ensemble)
            digest = put() if self.retry is None else self.retry.call(
                put, seam="checkpoint.ensemble"
            )
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
