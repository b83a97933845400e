"""Evaluation: metrics, simulated annotator panel, weekly stability."""

from repro.eval.metrics import (
    average_precision,
    binary_accuracy,
    precision_at_k,
    roc_auc,
)
from repro.eval.annotator import (
    AnnotationReport,
    AnnotatorPanel,
    average_expansion_entity_count,
)
from repro.eval.stability import StabilityReport, weekly_stability
from repro.eval.relations import MinedRelationReport, accept_mask, evaluate_mined_relations

__all__ = [
    "roc_auc",
    "binary_accuracy",
    "precision_at_k",
    "average_precision",
    "AnnotatorPanel",
    "AnnotationReport",
    "average_expansion_entity_count",
    "StabilityReport",
    "weekly_stability",
    "MinedRelationReport",
    "accept_mask",
    "evaluate_mined_relations",
]
