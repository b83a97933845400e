"""Shared harness for link-prediction models (Table II protocol).

Every baseline (and ALPC itself) implements the same two-method interface:
``fit(split, features)`` and ``predict_pairs(pairs) -> scores`` so the
benchmark loop can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro import rng as rng_mod
from repro.datasets.splits import LinkPredictionSplit
from repro.errors import NotFittedError
from repro.eval.metrics import roc_auc
from repro.nn import MLP, Module
from repro.nn.functional import binary_cross_entropy_with_logits
from repro.tensor import Adam, Tensor, concat, gather_rows, no_grad, sigmoid


class LinkPredictionModel(Protocol):
    """Structural interface all link predictors satisfy."""

    name: str

    def fit(self, split: LinkPredictionSplit, features: np.ndarray) -> "LinkPredictionModel":
        ...

    def predict_pairs(self, pairs: np.ndarray) -> np.ndarray:
        ...


@dataclass
class LinkPredictionResult:
    """Evaluation row: the two Table II metrics plus the raw scores."""

    name: str
    auc: float
    scores: np.ndarray
    labels: np.ndarray


def evaluate_link_predictor(
    model: LinkPredictionModel, split: LinkPredictionSplit
) -> LinkPredictionResult:
    """Score the held-out test pairs and compute ROC-AUC."""
    pairs, labels = split.test_pairs_and_labels()
    scores = model.predict_pairs(pairs)
    return LinkPredictionResult(
        name=model.name, auc=roc_auc(labels, scores), scores=scores, labels=labels
    )


class EmbeddingLinkPredictor:
    """Frozen node embeddings + logistic scorer on the Hadamard product.

    The classic protocol for DeepWalk / Node2Vec link prediction: pair
    features are ``z_u ⊙ z_v`` and a logistic-regression head is trained on
    the split's train pairs.
    """

    def __init__(self, name: str, embeddings: np.ndarray, epochs: int = 200, lr: float = 0.5, seed: int = 0) -> None:
        self.name = name
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._weights: np.ndarray | None = None
        self._bias = 0.0

    def fit(self, split: LinkPredictionSplit, features: np.ndarray | None = None) -> "EmbeddingLinkPredictor":
        pairs, labels = split.train_pairs_and_labels()
        x = self._pair_features(pairs)
        # Start at the inner-product scorer (w = 1) — the canonical zero-shot
        # link score for walk embeddings — and let the LR refine it.
        w = np.ones(x.shape[1])
        b = 0.0
        n = len(x)
        for _ in range(self.epochs):
            z = x @ w + b
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            g = p - labels
            w -= self.lr * (x.T @ g) / n
            b -= self.lr * g.mean()
        self._weights, self._bias = w, b
        return self

    def predict_pairs(self, pairs: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        z = self._pair_features(pairs) @ self._weights + self._bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))

    def _pair_features(self, pairs: np.ndarray) -> np.ndarray:
        return self.embeddings[pairs[:, 0]] * self.embeddings[pairs[:, 1]]


class GNNLinkPredictor:
    """Full-graph GNN encoder + pair MLP trained with BCE (the generic
    recipe used by the GeniePath / CompGCN / GCN rows of Table II).

    The pair head is ``g([z_u || z_v])``: inner product + MLP correction.
    The paper allows ``g`` to be an inner product, a bilinear form or a
    neural network; the inner-product term gives immediately useful
    gradients (it aligns with the embedding geometry), and the MLP learns
    the asymmetric residual.
    """

    def __init__(
        self,
        name: str,
        encoder: Module,
        hidden_dim: int,
        epochs: int = 30,
        lr: float = 1e-2,
        batch_pairs: int = 4096,
        seed: int = 0,
        uses_relations: bool = False,
    ) -> None:
        self.name = name
        self.encoder = encoder
        self.pair_mlp = MLP([2 * hidden_dim, 32, 1], rng=seed + 1)
        self.epochs = epochs
        self.lr = lr
        self.batch_pairs = batch_pairs
        self.seed = seed
        self.uses_relations = uses_relations
        self._embeddings: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, split: LinkPredictionSplit, features: np.ndarray) -> "GNNLinkPredictor":
        rng = rng_mod.ensure_rng(self.seed)
        src, dst, rel = split.train_graph.directed_edges()
        n = split.num_nodes
        x = Tensor(np.asarray(features, dtype=np.float64))
        pairs, labels = split.train_pairs_and_labels()
        params = self.encoder.parameters() + self.pair_mlp.parameters()
        optimizer = Adam(params, lr=self.lr)

        for _ in range(self.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(order), self.batch_pairs):
                idx = order[start : start + self.batch_pairs]
                optimizer.zero_grad()
                z = self._encode(x, src, dst, n, rel)
                logits = self._score(z, pairs[idx])
                loss = binary_cross_entropy_with_logits(logits, labels[idx])
                loss.backward()
                optimizer.clip_grad_norm(5.0)
                optimizer.step()

        with no_grad():
            z = self._encode(x, src, dst, n, rel)
        self._embeddings = z.data.copy()
        self._final_z = z
        return self

    def _score(self, z: Tensor, pairs: np.ndarray) -> Tensor:
        left = gather_rows(z, pairs[:, 0])
        right = gather_rows(z, pairs[:, 1])
        dot = (left * right).sum(axis=1)
        residual = self.pair_mlp(concat([left, right], axis=1)).reshape(len(pairs))
        return dot + residual

    def _encode(self, x: Tensor, src, dst, n, rel) -> Tensor:
        if self.uses_relations:
            return self.encoder(x, src, dst, n, relation=rel)
        return self.encoder(x, src, dst, n)

    def predict_pairs(self, pairs: np.ndarray) -> np.ndarray:
        if self._embeddings is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        with no_grad():
            logits = self._score(Tensor(self._embeddings), pairs)
            return sigmoid(logits).data

    @property
    def node_embeddings(self) -> np.ndarray:
        if self._embeddings is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        return self._embeddings
