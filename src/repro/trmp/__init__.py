"""TRMP: the Three-stage Relation Mining Procedure (the paper's core)."""

from repro.trmp.candidate import (
    CandidateGenerationConfig,
    CandidateGenerator,
    CandidateResult,
    popularity_sampling_pairs,
)
from repro.trmp.losses import (
    anchor_negative_mask,
    info_nce_loss,
    prediction_loss,
    threshold_loss,
    total_loss,
)
from repro.trmp.negative_sampling import (
    hard_negative_pairs,
    mixed_negative_pairs,
    semantic_anchor_pairs,
)
from repro.trmp.alpc import ALPCConfig, ALPCLinkPredictor, ALPCModel, ALPCTrainReport
from repro.trmp.ensemble import EnsembleConfig, EnsembleLinkPredictor, EnsembleModel
from repro.trmp.pipeline import TRMPConfig, TRMPipeline, WeeklyRun

__all__ = [
    "CandidateGenerationConfig",
    "CandidateGenerator",
    "CandidateResult",
    "popularity_sampling_pairs",
    "prediction_loss",
    "threshold_loss",
    "info_nce_loss",
    "anchor_negative_mask",
    "total_loss",
    "semantic_anchor_pairs",
    "hard_negative_pairs",
    "mixed_negative_pairs",
    "ALPCConfig",
    "ALPCLinkPredictor",
    "ALPCModel",
    "ALPCTrainReport",
    "EnsembleConfig",
    "EnsembleLinkPredictor",
    "EnsembleModel",
    "TRMPConfig",
    "TRMPipeline",
    "WeeklyRun",
]
