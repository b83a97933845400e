"""Loss functions shared across models."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, as_tensor, relu
from repro.tensor.ops import _as_tensor, _make  # noqa: F401 (re-export convenience)


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Numerically stable BCE on raw logits.

    Uses the identity ``bce = max(z, 0) - z*y + log(1 + exp(-|z|))`` which
    never exponentiates a positive number.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    z = logits.data
    softplus = np.log1p(np.exp(-np.abs(z)))
    loss_data = np.maximum(z, 0.0) - z * targets + softplus
    # Gradient of BCE wrt logits is sigmoid(z) - y.
    sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    grad_local = sig - targets
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        loss_data = loss_data * weights
        grad_local = grad_local * weights
        denom = float(weights.sum()) or 1.0
    else:
        denom = float(loss_data.size)

    mean = float(loss_data.sum()) / denom

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        return (g * grad_local / denom,)

    return _make(np.asarray(mean), (logits,), backward, "bce_with_logits")


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean categorical cross-entropy over the last axis.

    ``logits``: ``(..., num_classes)``; ``targets``: integer class ids of
    shape ``logits.shape[:-1]``; optional boolean ``mask`` of the same shape
    selects which positions count (all of them when ``None``).

    One autograd node that does the softmax arithmetic on the counted rows
    only, to the bit what ``log_softmax`` -> pick -> masked mean computes
    (DESIGN.md "Training: only the rows that are read"). A target outside
    ``[0, num_classes)`` on a counted row raises ``IndexError``; uncounted
    rows may hold anything (the MLM has pad ids there).
    """
    logits = as_tensor(logits)
    num_classes = logits.shape[-1]
    flat = logits.data.reshape(-1, num_classes)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if mask is None:
        rows = slice(None)
    else:
        rows = np.flatnonzero(np.asarray(mask, dtype=bool).reshape(-1))
    picked_targets = targets[rows]
    if picked_targets.size and not (
        0 <= picked_targets.min() and picked_targets.max() < num_classes
    ):
        raise IndexError(f"cross_entropy target outside [0, {num_classes})")
    at_target = (np.arange(len(picked_targets)), picked_targets)

    counted = flat[rows]
    shifted = counted - counted.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    # Reduced over every row, counted or not, so the pairwise summation has
    # the length it had when uncounted rows were multiplied by zero.
    picked = np.zeros(flat.shape[0])
    picked[rows] = shifted[at_target] - lse[:, 0]
    scale = 1.0 / (float(len(picked_targets)) or 1.0)
    loss = -picked.sum() * scale
    # Shapes only: ``flat`` and ``counted`` may be views that would keep
    # the logits alive until backward().
    flat_shape, logits_shape = flat.shape, logits.shape

    def backward(g: np.ndarray) -> tuple[np.ndarray]:
        per_row = -(g * scale)
        grad_counted = np.zeros(shifted.shape)
        grad_counted[at_target] = per_row
        grad_counted -= np.exp(shifted - lse) * per_row
        # The logits' GEMMs stay full-size: uncounted rows get exact zeros.
        grad = np.zeros(flat_shape)
        grad[rows] = grad_counted
        return (grad.reshape(logits_shape),)

    return _make(np.asarray(loss), (logits,), backward, "cross_entropy")


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    pred = as_tensor(pred)
    diff = pred - np.asarray(target, dtype=np.float64)
    return (diff * diff).mean()


def hinge_margin_loss(positive: Tensor, negative: Tensor, margin: float = 1.0) -> Tensor:
    """Pairwise hinge: encourage ``positive`` to exceed ``negative`` by ``margin``."""
    return relu(negative - positive + margin).mean()
