"""Every stage a weekly refresh trains or builds, as one module-level
function (the daily build is :mod:`repro.trmp.daily`).

:class:`~repro.trmp.pipeline.TRMPipeline` runs these in a
:class:`~repro.trmp.stage_worker.StageWorker`, never in the serving
process. Each takes picklable inputs, is seeded by its config alone, and
returns ``(payload, {step: busy seconds})``: the payload is exactly what
the in-process code used to produce, so the checkpoint digests and the
published artifacts are the same bytes.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.datasets.behavior import BehaviorLog
from repro.datasets.splits import LinkPredictionSplit, make_link_prediction_split
from repro.embeddings.semantic import SemanticEncoderConfig, SemanticEntityEncoder
from repro.embeddings.skipgram import SkipGramConfig, fit_cooccurrence, occurrence_counts
from repro.errors import ConfigError
from repro.graph.entity_graph import RELATION_RANKED, EntityGraph
from repro.rng import ensure_rng
from repro.text.lexicon import Lexicon
from repro.text.sequence_extractor import EntitySequenceExtractor
from repro.trmp.alpc import ALPCConfig, ALPCLinkPredictor
from repro.trmp.candidate import CandidateResult
from repro.trmp.ensemble import EnsembleConfig, EnsembleLinkPredictor


def cooccurrence_stage(
    extractor: EntitySequenceExtractor,
    events: BehaviorLog,
    num_entities: int,
    config: SkipGramConfig,
) -> tuple[dict, dict[str, float]]:
    """NER over the drop, then skip-gram: ``{"e_co", "counts"}``."""
    start = perf_counter()
    sequences = extractor.corpus_sequences(events)
    if not sequences:
        raise ConfigError("no entity sequences extracted from the events")
    counts = occurrence_counts(sequences, num_entities)
    extracted = perf_counter()
    e_co = fit_cooccurrence(num_entities, config, sequences)
    return {"e_co": e_co, "counts": counts}, {
        "ner_extraction": extracted - start,
        "cooccurrence_embedding": perf_counter() - extracted,
    }


def lexicon_stage(
    descriptions: list[list[str]], config: SemanticEncoderConfig
) -> tuple[Lexicon, dict[str, float]]:
    """The semantic pretrain: vocabulary, token table and ``E^Se``."""
    start = perf_counter()
    lexicon = SemanticEntityEncoder.from_descriptions(descriptions, config).pretrain().lexicon()
    return lexicon, {"semantic_pretrain": perf_counter() - start}


def ranking_stage(
    candidate: CandidateResult,
    feedback_pairs: np.ndarray | None,
    config: ALPCConfig,
    split_seed: int,
    test_fraction: float,
    train_negative_ratio: float,
    min_probability: float,
) -> tuple[dict, dict[str, float]]:
    """Split, ALPC fit, ranked graph: ``{"alpc", "split", "ranked"}``.

    ``feedback_pairs`` are marketer-confirmed relations from the online
    stage (§II-B Remark); they are appended to the training positives as
    high-confidence supervision.
    """
    start = perf_counter()
    split = make_link_prediction_split(
        candidate.graph,
        test_fraction=test_fraction,
        train_negative_ratio=train_negative_ratio,
        rng=ensure_rng(split_seed),
    )
    if feedback_pairs is not None and len(feedback_pairs):
        extra = np.asarray(feedback_pairs, dtype=np.int64).reshape(-1, 2)
        split.train_pos = np.concatenate([split.train_pos, extra])
    alpc = ALPCLinkPredictor(config)
    alpc.fit(split, candidate.node_features, candidate.e_semantic)
    fitted = perf_counter()
    ranked = ranked_graph(candidate, alpc, min_probability)
    return {"alpc": alpc, "split": split, "ranked": ranked}, {
        "alpc_ranking": fitted - start,
        "graph_ranking": perf_counter() - fitted,
    }


def ranked_graph(
    candidate: CandidateResult, alpc: ALPCLinkPredictor, min_probability: float
) -> EntityGraph:
    """Stage II output graph: candidate relations accepted by ALPC.

    Acceptance uses the two-sided adaptive threshold and the calibrated
    link probability; edge weights are those probabilities.
    """
    lo, hi = candidate.graph.canonical_pairs()
    pairs = np.stack([lo, hi], axis=1)
    probabilities = alpc.predict_pairs(pairs)
    accepted = alpc.accept_pairs(pairs)
    accepted &= probabilities >= min_probability
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


def ensemble_stage(
    snapshots: list[np.ndarray], split: LinkPredictionSplit, config: EnsembleConfig
) -> tuple[EnsembleLinkPredictor, dict[str, float]]:
    """Stage III: fuse the trailing weekly snapshots (Eq. 6)."""
    start = perf_counter()
    ensemble = EnsembleLinkPredictor(config).fit(snapshots, split)
    return ensemble, {"ensemble": perf_counter() - start}

