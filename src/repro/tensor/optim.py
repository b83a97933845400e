"""The Adam optimiser for :class:`repro.tensor.Tensor` parameters."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.tensor.tensor import Tensor


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: list[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ConfigError("optimizer received no trainable parameters")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``."""
        norm = global_grad_norm(self.params)
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def global_grad_norm(params: Sequence[Tensor]) -> float:
    """L2 norm across all parameter gradients (``None`` grads count as zero)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    return float(np.sqrt(total))
