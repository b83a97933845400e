"""Loss functions."""

import numpy as np
import pytest
from scipy.special import log_softmax as scipy_log_softmax

from repro.nn.functional import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    hinge_margin_loss,
    mse_loss,
)
from repro.tensor import Tensor

from helpers import assert_gradcheck, composed_cross_entropy


class TestBCE:
    def test_matches_manual_formula(self, rng):
        z = rng.normal(size=(20,))
        y = (rng.random(20) < 0.5).astype(float)
        p = 1 / (1 + np.exp(-z))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        actual = float(binary_cross_entropy_with_logits(Tensor(z), y).data)
        assert abs(actual - expected) < 1e-10

    def test_stable_for_extreme_logits(self):
        z = Tensor(np.array([-500.0, 500.0]))
        y = np.array([0.0, 1.0])
        loss = binary_cross_entropy_with_logits(z, y)
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-6

    def test_gradcheck(self, rng):
        z = rng.normal(size=(6,))
        y = (rng.random(6) < 0.5).astype(float)
        assert_gradcheck(lambda x: binary_cross_entropy_with_logits(x, y), z)

    def test_weighted(self, rng):
        z = rng.normal(size=(4,))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        w = np.array([2.0, 0.0, 0.0, 0.0])
        weighted = float(binary_cross_entropy_with_logits(Tensor(z), y, weights=w).data)
        only_first = float(
            binary_cross_entropy_with_logits(Tensor(z[:1]), y[:1]).data
        )
        assert abs(weighted - only_first) < 1e-10

    def test_weighted_gradcheck(self, rng):
        z = rng.normal(size=(5,))
        y = (rng.random(5) < 0.5).astype(float)
        w = rng.random(5) + 0.1
        assert_gradcheck(lambda x: binary_cross_entropy_with_logits(x, y, weights=w), z)


class TestCrossEntropy:
    def test_matches_scipy(self, rng):
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        expected = -scipy_log_softmax(logits, axis=-1)[np.arange(5), targets].mean()
        actual = float(cross_entropy(Tensor(logits), targets).data)
        assert abs(actual - expected) < 1e-10

    def test_gradcheck(self, rng):
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=4)
        assert_gradcheck(lambda x: cross_entropy(x, targets), logits)

    def test_masked_positions_excluded(self, rng):
        logits = rng.normal(size=(2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3))
        mask = np.zeros((2, 3), bool)
        mask[0, 0] = True
        masked = float(cross_entropy(Tensor(logits), targets, mask=mask).data)
        single = float(cross_entropy(Tensor(logits[0:1, 0:1]), targets[0:1, 0:1]).data)
        assert abs(masked - single) < 1e-10

    def test_masked_gradcheck(self, rng):
        logits = rng.normal(size=(2, 3, 4))
        targets = rng.integers(0, 4, size=(2, 3))
        mask = rng.random((2, 3)) < 0.6
        mask[0, 0] = True
        assert_gradcheck(lambda x: cross_entropy(x, targets, mask=mask), logits)


def loss_and_grad(fn, logits, targets, mask):
    x = Tensor(logits, requires_grad=True)
    loss = fn(x, targets, mask=mask) if mask is not None else fn(x, targets)
    loss.backward()
    return loss.data, x.grad


class TestFusedCrossEntropyKeepsTheBits:
    """Row-selective arithmetic, byte-equal to the composed graph."""

    @staticmethod
    def case(name):
        rng = np.random.default_rng(24)
        shape = (4, 16, 53) if name.endswith("3d") else (64, 53)
        logits = rng.normal(scale=3.0, size=shape)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        if name.startswith("none"):
            return logits, targets, None
        mask = np.zeros(shape[:-1], dtype=bool)
        if name.startswith("one"):
            mask.reshape(-1)[37] = True
        elif name.startswith("sparse"):  # the MLM's share: about 9 % of rows
            mask.reshape(-1)[rng.permutation(mask.size)[:6]] = True
        elif name.startswith("all"):
            mask[...] = True
        return logits, targets, mask

    @pytest.mark.parametrize(
        "name", ["one_2d", "one_3d", "sparse_2d", "sparse_3d", "all_2d", "all_3d", "none_2d", "none_3d"]
    )
    def test_loss_and_gradient_bytes(self, name):
        logits, targets, mask = self.case(name)
        loss, grad = loss_and_grad(cross_entropy, logits, targets, mask)
        want_loss, want_grad = loss_and_grad(composed_cross_entropy, logits, targets, mask)
        assert loss.tobytes() == want_loss.tobytes()
        assert grad.shape == logits.shape
        assert grad.tobytes() == want_grad.tobytes()

    def test_upstream_cotangent_is_applied(self):
        logits, targets, mask = self.case("sparse_3d")
        grads = []
        for fn in (cross_entropy, composed_cross_entropy):
            x = Tensor(logits, requires_grad=True)
            (fn(x, targets, mask=mask) * 0.37).backward()
            grads.append(x.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_no_counted_row_is_zero_loss_and_zero_gradient(self):
        logits, targets, _ = self.case("none_3d")
        mask = np.zeros(targets.shape, dtype=bool)
        loss, grad = loss_and_grad(cross_entropy, logits, targets, mask)
        assert float(loss) == 0.0
        assert grad.tobytes() == np.zeros(logits.shape).tobytes()

    def test_target_out_of_range_raises_on_counted_rows_only(self):
        logits, targets, mask = self.case("sparse_2d")
        counted, uncounted = np.flatnonzero(mask)[0], np.flatnonzero(~mask)[0]
        for bad in (-1, logits.shape[-1]):
            ignored = targets.copy()
            ignored[uncounted] = bad  # the MLM keeps pad ids on such rows
            want = cross_entropy(Tensor(logits), targets, mask=mask).data
            assert cross_entropy(Tensor(logits), ignored, mask=mask).data == want
            read = targets.copy()
            read[counted] = bad
            with pytest.raises(IndexError):
                cross_entropy(Tensor(logits), read, mask=mask)
            with pytest.raises(IndexError):
                cross_entropy(Tensor(logits), read)

    def test_no_graph_without_a_gradient_to_carry(self):
        logits, targets, mask = self.case("sparse_2d")
        assert cross_entropy(Tensor(logits), targets, mask=mask)._node is None


class TestOtherLosses:
    def test_mse(self, rng):
        pred = rng.normal(size=(8,))
        target = rng.normal(size=(8,))
        expected = ((pred - target) ** 2).mean()
        assert abs(float(mse_loss(Tensor(pred), target).data) - expected) < 1e-12

    def test_hinge_zero_when_margin_met(self):
        pos = Tensor(np.array([5.0, 5.0]))
        neg = Tensor(np.array([1.0, 1.0]))
        assert float(hinge_margin_loss(pos, neg, margin=1.0).data) == 0.0

    def test_hinge_positive_when_violated(self):
        pos = Tensor(np.array([0.0]))
        neg = Tensor(np.array([0.0]))
        assert float(hinge_margin_loss(pos, neg, margin=1.0).data) == pytest.approx(1.0)
