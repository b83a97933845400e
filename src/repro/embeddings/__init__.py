"""Embedding substrate: skip-gram (E^Co), mini-BERT semantics (E^Se), exact top-k."""

from repro.embeddings.skipgram import SkipGramConfig, SkipGramModel, fit_cooccurrence
from repro.embeddings.mlm import MaskedLanguageModel, MLMConfig, MLMTrainReport, train_mlm
from repro.embeddings.semantic import SemanticEncoderConfig, SemanticEntityEncoder
from repro.embeddings.knn import all_pairs_topk

__all__ = [
    "SkipGramConfig",
    "SkipGramModel",
    "fit_cooccurrence",
    "MaskedLanguageModel",
    "MLMConfig",
    "MLMTrainReport",
    "train_mlm",
    "SemanticEncoderConfig",
    "SemanticEntityEncoder",
    "all_pairs_topk",
]
