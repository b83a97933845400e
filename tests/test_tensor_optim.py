"""The Adam optimiser and gradient-norm helpers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tensor import Adam, Tensor, global_grad_norm


def quadratic_loss(x: Tensor) -> Tensor:
    return ((x - 3.0) * (x - 3.0)).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor(np.full(4, -5.0), requires_grad=True)
        opt = Adam([x], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(x).backward()
            opt.step()
        np.testing.assert_allclose(x.data, np.full(4, 3.0), atol=1e-3)

    def test_bias_correction_first_step(self):
        x = Tensor([0.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.zero_grad()
        (x * 4.0).sum().backward()
        opt.step()
        # With bias correction the first step has magnitude ~lr.
        assert abs(abs(float(x.data[0])) - 0.1) < 1e-6

    def test_weight_decay(self):
        x = Tensor([5.0], requires_grad=True)
        opt = Adam([x], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (x * 0.0).sum().backward()
        opt.step()
        assert float(x.data[0]) < 5.0

    def test_rejects_bad_lr_and_empty_params(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ConfigError):
            Adam([x], lr=-1)
        with pytest.raises(ConfigError):
            Adam([Tensor([1.0])])  # no trainable params

    def test_skips_params_without_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        opt = Adam([x, y], lr=0.5)
        (x * 2).sum().backward()
        opt.step()
        np.testing.assert_allclose(y.data, [2.0])
        np.testing.assert_allclose(x.data, [0.5])


class TestClip:
    def test_clip_grad_norm_scales(self):
        x = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        opt = Adam([x], lr=1.0)
        x.grad = np.array([3.0, 4.0])  # norm 5
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_noop_below_max(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=1.0)
        x.grad = np.array([0.5])
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(x.grad, [0.5])

    def test_global_grad_norm(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert global_grad_norm([a, b]) == pytest.approx(5.0)
        assert global_grad_norm([Tensor([0.0], requires_grad=True)]) == 0.0
