"""Skip-gram with negative sampling (SGNS) over entity sequences.

Paper §III-B.1 mines *co-occurrence-level* entity relevance by running
word2vec's Skip-gram model over the entity sequences produced by the entity
sequence extractor; the resulting matrix is ``E^Co``. The same trainer is
reused by DeepWalk and Node2Vec (their random walks are just another kind of
"sequence").

Gradients are hand-derived (the SGNS objective is two logistic losses), which
keeps this hot loop an order of magnitude faster than going through the
autograd engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import ConfigError, NotFittedError
from repro.graph.sampling import AliasSampler
from repro.rng import ensure_rng
from repro.tensor.ops import scatter_add_rows


@dataclass
class SkipGramConfig:
    """Hyper-parameters for SGNS training."""

    dim: int = 32
    window: int = 3
    negatives: int = 5
    epochs: int = 10
    lr: float = 0.05
    min_lr: float = 0.002
    batch_size: int = 256
    #: Exponent for the unigram negative-sampling distribution (word2vec: 0.75).
    noise_exponent: float = 0.75
    seed: int = 13

    def validate(self) -> None:
        if self.dim < 1 or self.window < 1 or self.negatives < 1 or self.epochs < 1:
            raise ConfigError("dim, window, negatives and epochs must be positive")
        if self.lr <= 0 or self.min_lr <= 0 or self.min_lr > self.lr:
            raise ConfigError("need 0 < min_lr <= lr")


class SkipGramModel:
    """SGNS trainer producing ``(num_items, dim)`` co-occurrence embeddings."""

    def __init__(self, num_items: int, config: SkipGramConfig | None = None) -> None:
        self.num_items = num_items
        self.config = config or SkipGramConfig()
        self.config.validate()
        rng = ensure_rng(self.config.seed)
        bound = 0.5 / self.config.dim
        self.in_vectors = rng.uniform(-bound, bound, size=(num_items, self.config.dim))
        self.out_vectors = np.zeros((num_items, self.config.dim))
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, sequences: list[list[int]], rng: np.random.Generator | int | None = None) -> "SkipGramModel":
        """Train on integer id sequences; returns ``self``."""
        cfg = self.config
        rng = ensure_rng(rng if rng is not None else cfg.seed + 1)
        pairs = self._build_pairs(sequences)
        if len(pairs) == 0:
            raise ConfigError("no training pairs: sequences are too short")
        noise = self._noise_sampler(sequences)

        total_steps = cfg.epochs * (len(pairs) // cfg.batch_size + 1)
        step = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(pairs), cfg.batch_size):
                lr = cfg.lr + (cfg.min_lr - cfg.lr) * (step / max(total_steps - 1, 1))
                batch = pairs[order[start : start + cfg.batch_size]]
                negatives = noise.sample(rng, size=len(batch) * cfg.negatives).reshape(
                    len(batch), cfg.negatives
                )
                self._sgd_step(batch[:, 0], batch[:, 1], negatives, lr)
                step += 1
        self._fitted = True
        return self

    def _build_pairs(self, sequences: list[list[int]]) -> np.ndarray:
        window = self.config.window
        pairs: list[tuple[int, int]] = []
        for seq in sequences:
            n = len(seq)
            for i, center in enumerate(seq):
                lo = max(0, i - window)
                hi = min(n, i + window + 1)
                for j in range(lo, hi):
                    if j != i:
                        pairs.append((center, seq[j]))
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    def _noise_sampler(self, sequences: list[list[int]]) -> AliasSampler:
        counts = occurrence_counts(sequences, self.num_items)
        counts = np.maximum(counts, 1e-3) ** self.config.noise_exponent
        return AliasSampler(counts)

    def _sgd_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
        lr: float,
    ) -> None:
        w = self.in_vectors[centers]  # (B, d)
        c_pos = self.out_vectors[contexts]  # (B, d)
        c_neg = self.out_vectors[negatives]  # (B, K, d)

        pos_score = _sigmoid((w * c_pos).sum(axis=1))  # (B,)
        neg_score = _sigmoid(np.einsum("bd,bkd->bk", w, c_neg))  # (B, K)

        g_pos = (pos_score - 1.0)[:, None]  # d(loss)/d(w·c_pos)
        g_neg = neg_score[..., None]  # d(loss)/d(w·c_neg)

        grad_w = g_pos * c_pos + np.einsum("bko,bkd->bd", g_neg, c_neg)
        grad_c_pos = g_pos * w
        grad_c_neg = g_neg * w[:, None, :]

        # Popular entities can appear hundreds of times in one batch; the
        # accumulated row update would explode. Normalise each row's update
        # by its occurrence count so the step size stays bounded.
        n = self.num_items
        center_count = np.bincount(centers, minlength=n)[centers][:, None]
        ctx_count = np.bincount(contexts, minlength=n)[contexts][:, None]
        flat_neg = negatives.reshape(-1)
        neg_count = np.bincount(flat_neg, minlength=n)[flat_neg][:, None]

        scatter_add_rows(self.in_vectors, centers, -lr * grad_w / center_count)
        # One call for both output updates. Contexts come before negatives:
        # a row that is both accumulates in that order, and seeded training
        # is pinned to the bit.
        scatter_add_rows(
            self.out_vectors,
            np.concatenate([contexts, flat_neg]),
            np.concatenate(
                [
                    -lr * grad_c_pos / ctx_count,
                    -lr * grad_c_neg.reshape(-1, self.config.dim) / neg_count,
                ]
            ),
        )

    # ------------------------------------------------------------------
    @property
    def vectors(self) -> np.ndarray:
        """The input embedding matrix (the standard word2vec output)."""
        if not self._fitted:
            raise NotFittedError("SkipGramModel.fit has not been called")
        return self.in_vectors

    def normalized_vectors(self) -> np.ndarray:
        v = self.vectors
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        return v / np.maximum(norms, 1e-12)

    def similarity(self, a: int, b: int) -> float:
        v = self.normalized_vectors()
        return float(v[a] @ v[b])


def fit_cooccurrence(
    num_items: int, config: SkipGramConfig, sequences: list[list[int]]
) -> np.ndarray:
    """``E^Co``: the row-normalised SGNS vectors of ``sequences``.

    A module-level function of picklable arguments, seeded by ``config``
    alone, so the weekly refresh can run it inline or in its stage worker
    (:mod:`repro.trmp.stage_worker`) and get the same bytes.
    """
    return SkipGramModel(num_items, config).fit(sequences).normalized_vectors()


def occurrence_counts(sequences: list[list[int]], num_items: int) -> np.ndarray:
    """How often each id occurs across ``sequences``, as float64."""
    ids = np.fromiter(chain.from_iterable(sequences), dtype=np.int64)
    return np.bincount(ids, minlength=num_items).astype(np.float64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, -30.0, 30.0)
    return 1.0 / (1.0 + np.exp(-x))
