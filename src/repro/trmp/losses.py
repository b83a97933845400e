"""The three ALPC loss terms (paper Eqs. 2-5).

* ``prediction_loss`` — plain link-prediction BCE (Eq. 2);
* ``threshold_loss`` — adaptive-threshold BCE on ``σ(s_uv − ε_u)`` (Eq. 3);
* ``info_nce_loss`` — contrastive InfoNCE over semantic anchor pairs with
  in-batch negatives (Eq. 4).

Total loss (Eq. 5): ``L = L_pred + α·L_th + β·L_cl``; the paper found
``α = β = 1`` best (we sweep this in the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.functional import binary_cross_entropy_with_logits, cross_entropy
from repro.tensor import Tensor, gather_rows


def prediction_loss(
    logits: Tensor, labels: np.ndarray, weights: np.ndarray | None = None
) -> Tensor:
    """Eq. 2: BCE between σ(s_uv) and the link labels.

    ``weights`` are optional per-pair importance weights (used by the
    drift-aware stable-training extension, :mod:`repro.trmp.stable`).
    """
    return binary_cross_entropy_with_logits(logits, labels, weights=weights)


def threshold_loss(logits: Tensor, thresholds: Tensor, labels: np.ndarray) -> Tensor:
    """Eq. 3: BCE on the margin σ(s_uv − ε_u), class-balanced.

    Positives push the score above the source entity's personalised
    threshold, negatives push it below — which is exactly what makes the
    threshold usable for per-source truncation at serving time. Training
    pairs are 1:3 positive:negative (§IV-A.2), so without re-weighting the
    thresholds drift up until nothing is accepted; each class therefore
    receives equal total weight.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return binary_cross_entropy_with_logits(logits - thresholds, labels)
    weights = np.where(labels == 1, 0.5 / n_pos, 0.5 / n_neg) * len(labels)
    return binary_cross_entropy_with_logits(logits - thresholds, labels, weights=weights)


def info_nce_loss(
    embeddings: Tensor,
    anchor_pairs: np.ndarray,
    temperature: float = 0.2,
    negative_mask: np.ndarray | None = None,
) -> Tensor:
    """Eq. 4: InfoNCE over ⟨e, e+⟩ anchor pairs with in-batch negatives.

    ``anchor_pairs`` is ``(B, 2)``; row ``i``'s positive is its own partner
    and its negatives are every other partner in the batch.

    ``negative_mask`` (``(B, B)`` boolean, ``True`` = usable) excludes
    in-batch "negatives" that are known to be related to the anchor (e.g.
    candidate-graph neighbours). At industrial scale random in-batch
    entities are almost surely unrelated; at reproduction scale (hundreds of
    entities over a dozen topics) unmasked batches are riddled with false
    negatives that wreck the embedding geometry.
    """
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    anchor_pairs = np.asarray(anchor_pairs, dtype=np.int64).reshape(-1, 2)
    anchors = _l2_normalize(gather_rows(embeddings, anchor_pairs[:, 0]))  # (B, d)
    positives = _l2_normalize(gather_rows(embeddings, anchor_pairs[:, 1]))  # (B, d)
    logits = (anchors @ positives.T) * (1.0 / temperature)  # (B, B)
    if negative_mask is not None:
        mask = np.asarray(negative_mask, dtype=bool).copy()
        np.fill_diagonal(mask, True)  # the positive is always scored
        logits = logits + np.where(mask, 0.0, -1e9)
    targets = np.arange(len(anchor_pairs))
    return cross_entropy(logits, targets)


def anchor_negative_mask(anchor_pairs: np.ndarray, edge_keys: set[tuple[int, int]]) -> np.ndarray:
    """Mask allowing only in-batch negatives that are not graph-related.

    ``mask[i, j]`` is ``False`` when anchor ``i`` and positive-partner ``j``
    share an edge (or identity) — those are false negatives.
    """
    anchor_pairs = np.asarray(anchor_pairs, dtype=np.int64).reshape(-1, 2)
    edges = np.asarray(list(edge_keys), dtype=np.int64).reshape(-1, 2)
    # Entity-by-entity relatedness (identity or an edge), sized to cover
    # batch entities that are absent from the graph.
    size = int(max(anchor_pairs.max(initial=-1), edges.max(initial=-1))) + 1
    related = np.eye(size, dtype=bool)
    related[edges[:, 0], edges[:, 1]] = True
    related[edges[:, 1], edges[:, 0]] = True
    return ~related[np.ix_(anchor_pairs[:, 0], anchor_pairs[:, 1])]


def _l2_normalize(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-normalise so the InfoNCE logits are bounded cosines / τ."""
    from repro.tensor import sqrt

    norm = sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    return x / norm


def total_loss(
    pred: Tensor,
    th: Tensor,
    cl: Tensor,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> Tensor:
    """Eq. 5 weighted sum."""
    return pred + alpha * th + beta * cl
