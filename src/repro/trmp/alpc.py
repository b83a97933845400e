"""ALPC — Adaptive-threshold Link Prediction with Contrastive learning.

The ranking-stage model of TRMP (paper §III-B.2): a GeniePath encoder over
``[E^Se || E^Co]`` node features, a pair scorer ``s_uv = g([z_u || z_v])``,
an adaptive-threshold head ``ε_u = MLP(z_u)`` and a semantic-anchor InfoNCE
task. Ablations ``ALPC_th-`` / ``ALPC_cl-`` are obtained with ``alpha=0`` /
``beta=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import rng as rng_mod
from repro.datasets.splits import LinkPredictionSplit
from repro.errors import ConfigError, NotFittedError
from repro.gnn.geniepath import GeniePathEncoder
from repro.nn import MLP, Module
from repro.tensor import Adam, Tensor, concat, gather_rows, no_grad, sigmoid
from repro.trmp.losses import (
    anchor_negative_mask,
    info_nce_loss,
    prediction_loss,
    threshold_loss,
    total_loss,
)
from repro.trmp.negative_sampling import semantic_anchor_pairs


@dataclass
class ALPCConfig:
    """Hyper-parameters; ``alpha = beta = 1`` is the paper's best setting."""

    hidden_dim: int = 32
    num_layers: int = 2
    alpha: float = 1.0  # weight of the adaptive-threshold loss
    beta: float = 1.0  # weight of the contrastive loss
    temperature: float = 0.5
    anchor_similarity_quantile: float = 0.7
    epochs: int = 40
    lr: float = 1e-2
    batch_pairs: int = 4096
    contrastive_batch: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ConfigError("hidden_dim and num_layers must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


class ALPCModel(Module):
    """Encoder + pair scorer + adaptive-threshold head."""

    def __init__(self, in_dim: int, config: ALPCConfig) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(config.seed)
        self.config = config
        self.encoder = GeniePathEncoder(in_dim, config.hidden_dim, config.num_layers, rng=rng)
        self.scorer = MLP([2 * config.hidden_dim, config.hidden_dim, 1], rng=rng)
        self.threshold_head = MLP([config.hidden_dim, config.hidden_dim // 2, 1], rng=rng)
        # Projection head for the contrastive task (SimCLR-style): InfoNCE
        # is applied to a projection of z rather than z itself, so its
        # norm-shrinking gradients cannot collapse the link-prediction
        # geometry. Necessary at reproduction scale; see DESIGN.md.
        self.contrastive_head = MLP(
            [config.hidden_dim, config.hidden_dim, config.hidden_dim // 2], rng=rng
        )

    def contrastive_projection(self, z: Tensor) -> Tensor:
        return self.contrastive_head(z)

    def encode(self, x: Tensor, src: np.ndarray, dst: np.ndarray, num_nodes: int) -> Tensor:
        return self.encoder(x, src, dst, num_nodes)

    def score_pairs(self, z: Tensor, pairs: np.ndarray) -> Tensor:
        """Raw correlation logits ``s_uv = z_u·z_v + MLP([z_u || z_v])``.

        The paper allows ``g`` to be an inner product, a bilinear form or a
        neural network (§III-B.2); combining the inner product with an MLP
        residual trains far faster than the MLP alone while keeping the
        expressive term.
        """
        left = gather_rows(z, pairs[:, 0])
        right = gather_rows(z, pairs[:, 1])
        dot = (left * right).sum(axis=1)
        residual = self.scorer(concat([left, right], axis=1)).reshape(len(pairs))
        return dot + residual

    def thresholds(self, z: Tensor, sources: np.ndarray) -> Tensor:
        """Personalised thresholds ``ε_u`` for the given source entities."""
        return self.threshold_head(gather_rows(z, sources)).reshape(len(sources))


@dataclass
class ALPCTrainReport:
    losses: list[float] = field(default_factory=list)
    pred_losses: list[float] = field(default_factory=list)
    th_losses: list[float] = field(default_factory=list)
    cl_losses: list[float] = field(default_factory=list)


class ALPCLinkPredictor:
    """Training/serving wrapper implementing the Table II model interface.

    ``fit`` needs the semantic embedding matrix ``E^Se`` for the contrastive
    anchors; it is taken from the feature matrix's first half by default
    (features are ``[E^Se || E^Co]``), or passed explicitly.
    """

    def __init__(self, config: ALPCConfig | None = None, name: str = "ALPC") -> None:
        self.config = config or ALPCConfig()
        self.config.validate()
        self.name = name
        self.model: ALPCModel | None = None
        self.report = ALPCTrainReport()
        self._embeddings: np.ndarray | None = None
        self._thresholds: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        split: LinkPredictionSplit,
        features: np.ndarray,
        e_semantic: np.ndarray | None = None,
    ) -> "ALPCLinkPredictor":
        """Train on the split."""
        cfg = self.config
        rng = rng_mod.ensure_rng(cfg.seed + 7)
        features = np.asarray(features, dtype=np.float64)
        if e_semantic is None:
            e_semantic = features[:, : features.shape[1] // 2]
        self.model = ALPCModel(features.shape[1], cfg)

        graph = split.train_graph
        src, dst, _ = graph.directed_edges()
        n = graph.num_nodes
        x = Tensor(features)
        pairs, labels = split.train_pairs_and_labels()

        anchors = (
            semantic_anchor_pairs(graph, e_semantic, cfg.anchor_similarity_quantile)
            if cfg.beta > 0
            else np.empty((0, 2), dtype=np.int64)
        )
        edge_keys = graph.edge_key_set()
        optimizer = Adam(self.model.parameters(), lr=cfg.lr)

        for _ in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(order), cfg.batch_pairs):
                idx = order[start : start + cfg.batch_pairs]
                optimizer.zero_grad()
                z = self.model.encode(x, src, dst, n)

                logits = self.model.score_pairs(z, pairs[idx])
                l_pred = prediction_loss(logits, labels[idx])

                if cfg.alpha > 0:
                    eps = self.model.thresholds(z, pairs[idx][:, 0])
                    l_th = threshold_loss(logits, eps, labels[idx])
                else:
                    l_th = Tensor(0.0)

                if cfg.beta > 0 and len(anchors):
                    take = rng.choice(
                        len(anchors),
                        size=min(cfg.contrastive_batch, len(anchors)),
                        replace=False,
                    )
                    batch_anchors = anchors[take]
                    mask = anchor_negative_mask(batch_anchors, edge_keys)
                    projected = self.model.contrastive_projection(z)
                    l_cl = info_nce_loss(projected, batch_anchors, cfg.temperature, mask)
                else:
                    l_cl = Tensor(0.0)

                loss = total_loss(l_pred, l_th, l_cl, cfg.alpha, cfg.beta)
                loss.backward()
                optimizer.clip_grad_norm(5.0)
                optimizer.step()

                self.report.losses.append(float(loss.data))
                self.report.pred_losses.append(float(l_pred.data))
                self.report.th_losses.append(float(l_th.data))
                self.report.cl_losses.append(float(l_cl.data))

        with no_grad():
            z = self.model.encode(x, src, dst, n)
            eps_all = self.model.thresholds(z, np.arange(n))
        self._embeddings = z.data.copy()
        self._thresholds = eps_all.data.copy()
        return self

    # ------------------------------------------------------------------
    def _require_fit(self) -> None:
        if self._embeddings is None:
            raise NotFittedError("ALPC has not been fitted")

    def predict_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """σ(s_uv) — the plain link-probability used for AUC."""
        self._require_fit()
        with no_grad():
            logits = self.model.score_pairs(Tensor(self._embeddings), pairs)
            return sigmoid(logits).data

    def predict_margins(self, pairs: np.ndarray) -> np.ndarray:
        """``s_uv − ε_u``: positive means "accept" under the adaptive threshold."""
        self._require_fit()
        with no_grad():
            logits = self.model.score_pairs(Tensor(self._embeddings), pairs)
        return logits.data - self._thresholds[np.asarray(pairs)[:, 0]]

    def accept_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Boolean mask: relations kept by per-source adaptive truncation.

        A relation is accepted only if the score clears the personalised
        threshold of *both* endpoints (the relation is undirected, so it
        must survive truncation from either side's correlated list).
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        forward = self.predict_margins(pairs) > 0.0
        backward = self.predict_margins(pairs[:, ::-1]) > 0.0
        return forward & backward

    def raw_scores(self, pairs: np.ndarray) -> np.ndarray:
        """Unsquashed logits ``s_uv`` (used by the Fig. 5(a) analysis)."""
        self._require_fit()
        with no_grad():
            return self.model.score_pairs(Tensor(self._embeddings), pairs).data

    @property
    def node_embeddings(self) -> np.ndarray:
        self._require_fit()
        return self._embeddings

    @property
    def node_thresholds(self) -> np.ndarray:
        self._require_fit()
        return self._thresholds
