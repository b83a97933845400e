"""Evaluation metrics: ROC-AUC, classification accuracy, precision@k, AP."""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from repro.errors import ConfigError


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic.

    Handles ties through average ranks; requires both classes present.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ConfigError("labels and scores must have the same shape")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigError("roc_auc needs at least one positive and one negative")
    ranks = rankdata(scores)
    rank_sum = ranks[pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def binary_accuracy(labels: np.ndarray, scores: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of correct thresholded predictions."""
    labels = np.asarray(labels)
    predictions = np.asarray(scores) >= threshold
    return float((predictions == (labels == 1)).mean())


def precision_at_k(relevance: np.ndarray, k: int) -> float:
    """Precision of the first ``k`` items of a ranked relevance list."""
    relevance = np.asarray(relevance, dtype=np.float64)
    if k < 1:
        raise ConfigError("k must be >= 1")
    k = min(k, len(relevance))
    return float(relevance[:k].mean())


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the precision-recall curve (step interpolation)."""
    labels = np.asarray(labels) == 1
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    sorted_labels = labels[order]
    cum_tp = np.cumsum(sorted_labels)
    precision = cum_tp / np.arange(1, len(labels) + 1)
    total_pos = int(labels.sum())
    if total_pos == 0:
        raise ConfigError("average_precision needs at least one positive")
    return float((precision * sorted_labels).sum() / total_pos)
