"""ALPC loss terms."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.trmp import (
    anchor_negative_mask,
    info_nce_loss,
    prediction_loss,
    threshold_loss,
    total_loss,
)

from helpers import assert_gradcheck


class TestPredictionLoss:
    def test_matches_bce(self, rng):
        logits = rng.normal(size=8)
        labels = (rng.random(8) < 0.5).astype(float)
        p = 1 / (1 + np.exp(-logits))
        expected = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
        assert float(prediction_loss(Tensor(logits), labels).data) == pytest.approx(expected)


class TestThresholdLoss:
    def test_margin_direction(self):
        logits = Tensor(np.array([2.0, 2.0]))
        labels = np.array([1.0, 0.0])
        low = Tensor(np.array([0.0, 0.0]))
        high = Tensor(np.array([4.0, 4.0]))
        # For the positive pair a low threshold is better; for the negative
        # pair a high threshold is better.
        loss_low = float(threshold_loss(logits, low, labels).data)
        loss_high = float(threshold_loss(logits, high, labels).data)
        pos_only = np.array([1.0, 1.0])
        assert float(threshold_loss(logits, low, pos_only).data) < float(
            threshold_loss(logits, high, pos_only).data
        )
        neg_only = np.array([0.0, 0.0])
        assert float(threshold_loss(logits, high, neg_only).data) < float(
            threshold_loss(logits, low, neg_only).data
        )

    def test_gradcheck_through_thresholds(self, rng):
        logits = rng.normal(size=5)
        labels = (rng.random(5) < 0.5).astype(float)
        assert_gradcheck(
            lambda eps: threshold_loss(Tensor(logits), eps, labels), rng.normal(size=5)
        )


class TestInfoNCE:
    def test_temperature_validation(self, rng):
        emb = Tensor(rng.normal(size=(6, 4)))
        anchors = np.array([[0, 1], [2, 3]])
        with pytest.raises(ConfigError):
            info_nce_loss(emb, anchors, temperature=0.0)

    def test_aligned_anchors_low_loss(self, rng):
        # Embeddings where anchor pairs are identical and others orthogonal.
        base = np.eye(4)
        emb = Tensor(np.concatenate([base, base], axis=0))  # i and i+4 identical
        anchors = np.array([[0, 4], [1, 5], [2, 6], [3, 7]])
        aligned = float(info_nce_loss(emb, anchors, temperature=0.2).data)
        shuffled = np.array([[0, 5], [1, 6], [2, 7], [3, 4]])
        misaligned = float(info_nce_loss(emb, shuffled, temperature=0.2).data)
        assert aligned < misaligned

    def test_gradcheck(self, rng):
        anchors = np.array([[0, 1], [2, 3], [4, 5]])
        assert_gradcheck(
            lambda x: info_nce_loss(x, anchors, temperature=0.5), rng.normal(size=(6, 4))
        )

    def test_negative_mask_excludes_false_negatives(self, rng):
        emb = Tensor(rng.normal(size=(6, 4)))
        anchors = np.array([[0, 1], [2, 3]])
        # Mask that forbids using pair 1's positive as pair 0's negative.
        mask = np.array([[True, False], [True, True]])
        masked = float(info_nce_loss(emb, anchors, 0.2, mask).data)
        # With only the diagonal left for row 0 its log-prob is 0.
        full = float(info_nce_loss(emb, anchors, 0.2).data)
        assert masked <= full + 1e-9

    def test_anchor_negative_mask_structure(self):
        anchors = np.array([[0, 1], [2, 3], [4, 0]])
        edges = {(0, 3)}  # anchor 0 relates to entity 3 (pair 1's positive)
        mask = anchor_negative_mask(anchors, edges)
        assert not mask[0, 1]  # (0,3) is an edge → forbidden negative
        assert not mask[0, 2]  # partner of row 2 is entity 0 == anchor 0
        assert mask[1, 0] and mask[2, 0]

    def test_anchor_negative_mask_equals_the_loop(self, rng):
        def loop_mask(anchor_pairs, edge_keys):
            """The cell-by-cell definition the vectorised mask replaced."""
            n = len(anchor_pairs)
            mask = np.ones((n, n), dtype=bool)
            for i in range(n):
                a = int(anchor_pairs[i, 0])
                for j in range(n):
                    b = int(anchor_pairs[j, 1])
                    if a == b or (min(a, b), max(a, b)) in edge_keys:
                        mask[i, j] = False
            return mask

        for num_nodes, num_edges, batch in [(12, 30, 40), (50, 80, 64), (30, 0, 16), (8, 5, 1)]:
            ends = rng.integers(0, num_nodes, size=(num_edges, 2))
            edges = {(int(min(u, v)), int(max(u, v))) for u, v in ends if u != v}
            # Ids up to 2x the graph: anchors absent from it; a small id
            # range: repeated anchors, a == b across rows, and self-pairs.
            anchors = rng.integers(0, 2 * num_nodes, size=(batch, 2))
            anchors[0] = anchors[0, 0]
            mask = anchor_negative_mask(anchors, edges)
            assert mask.dtype == bool
            assert np.array_equal(mask, loop_mask(anchors, edges))
        assert anchor_negative_mask(np.empty((0, 2), dtype=np.int64), {(0, 1)}).shape == (0, 0)


class TestTotalLoss:
    def test_weighted_sum(self):
        pred, th, cl = Tensor(1.0), Tensor(2.0), Tensor(3.0)
        assert float(total_loss(pred, th, cl, alpha=0.5, beta=2.0).data) == pytest.approx(8.0)

    def test_defaults_alpha_beta_one(self):
        pred, th, cl = Tensor(1.0), Tensor(1.0), Tensor(1.0)
        assert float(total_loss(pred, th, cl).data) == pytest.approx(3.0)
