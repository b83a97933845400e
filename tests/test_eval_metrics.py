"""Evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.eval import (
    average_precision,
    binary_accuracy,
    precision_at_k,
    roc_auc,
)


def quadratic_auc(labels, scores):
    """O(n^2) reference AUC with tie handling."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


class TestAUC:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == 1.0

    def test_inverted_ranking(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == 0.0

    def test_random_near_half(self, rng):
        labels = rng.integers(0, 2, size=5000)
        scores = rng.random(5000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.03

    @given(st.integers(0, 100_000), st.integers(5, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)  # forces ties
        assert roc_auc(labels, scores) == pytest.approx(quadratic_auc(labels, scores))

    def test_requires_both_classes(self):
        with pytest.raises(ConfigError):
            roc_auc(np.ones(5), np.random.rand(5))
        with pytest.raises(ConfigError):
            roc_auc(np.zeros(5), np.random.rand(5))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            roc_auc(np.ones(3), np.ones(4))


class TestThresholdMetrics:
    def test_binary_accuracy(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.9, 0.1, 0.2, 0.8])
        assert binary_accuracy(labels, scores) == 0.5

    def test_precision_at_k(self):
        relevance = np.array([1, 1, 0, 0])
        assert precision_at_k(relevance, 2) == 1.0
        assert precision_at_k(relevance, 4) == 0.5
        assert precision_at_k(relevance, 100) == 0.5  # clamps
        with pytest.raises(ConfigError):
            precision_at_k(relevance, 0)


class TestAveragePrecision:
    def test_perfect(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert average_precision(labels, scores) == 1.0

    def test_hand_case(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        # Ranked: 0, 1, 0, 1 → precisions at hits: 1/2, 2/4 → AP = 0.5
        assert average_precision(labels, scores) == pytest.approx(0.5)

    def test_requires_positive(self):
        with pytest.raises(ConfigError):
            average_precision(np.zeros(4), np.random.rand(4))
