"""Mini-BERT: masked-language-model pretraining for semantic embeddings.

Paper §III-B.1 uses BERT pre-trained on Wikipedia to provide the
*semantic-level* entity embeddings ``E^Se``. Offline we cannot ship BERT, so
we pretrain a small transformer encoder with the same objective (masked token
prediction) on the synthetic corpus (entity descriptions + behavior texts).
Its learned token table is then reused by :mod:`repro.embeddings.semantic`
to embed entities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigError
from repro.nn import Linear, Module, TransformerEncoder
from repro.nn.functional import cross_entropy
from repro.tensor import Adam, Tensor
from repro.text.tokenizer import encode_batch
from repro.text.vocab import Vocab


@dataclass
class MLMConfig:
    dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    max_len: int = 16
    mask_prob: float = 0.15
    epochs: int = 6
    batch_size: int = 32
    lr: float = 2e-3
    seed: int = 17

    def validate(self) -> None:
        if not 0 < self.mask_prob < 1:
            raise ConfigError("mask_prob must be in (0, 1)")
        if self.dim % self.num_heads:
            raise ConfigError("dim must be divisible by num_heads")


class MaskedLanguageModel(Module):
    """Transformer encoder + tied-size output head for MLM pretraining."""

    def __init__(self, vocab: Vocab, config: MLMConfig | None = None) -> None:
        super().__init__()
        self.config = config or MLMConfig()
        self.config.validate()
        rng = rng_mod.ensure_rng(self.config.seed)
        self.vocab = vocab
        self.encoder = TransformerEncoder(
            len(vocab),
            self.config.dim,
            self.config.num_layers,
            self.config.num_heads,
            self.config.max_len,
            rng=rng,
        )
        self.output_head = Linear(self.config.dim, len(vocab), rng)
        self._mask_rng = rng_mod.ensure_rng(self.config.seed + 1)

    # ------------------------------------------------------------------
    def draw_targets(self, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Pick the positions one step predicts: 15% of the real tokens."""
        cfg = self.config
        candidates = mask & (token_ids != self.vocab.pad_id)
        targets_mask = candidates & (self._mask_rng.random(token_ids.shape) < cfg.mask_prob)
        if not targets_mask.any():
            # Guarantee at least one prediction target per batch.
            rows, cols = np.nonzero(candidates)
            pick = self._mask_rng.integers(0, len(rows))
            targets_mask[rows[pick], cols[pick]] = True
        return targets_mask

    def loss(self, token_ids: np.ndarray, mask: np.ndarray, targets_mask: np.ndarray) -> Tensor:
        """One MLM step: mask the target positions, predict them."""
        corrupted = token_ids.copy()
        corrupted[targets_mask] = self.vocab.mask_id
        hidden = self.encoder(corrupted, key_padding_mask=mask)
        logits = self.output_head(hidden)
        return cross_entropy(logits, token_ids, mask=targets_mask)


@dataclass
class MLMTrainReport:
    losses: list[float]
    #: Summed over steps: ``batch x max_len`` positions, the real (unpadded)
    #: tokens among them, and the masked targets the loss reads — the shares
    #: the row-selective ``gelu`` and ``cross_entropy`` depend on.
    positions: int = 0
    real_positions: int = 0
    target_positions: int = 0


def train_mlm(
    model: MaskedLanguageModel,
    documents: list[list[str]],
    rng: np.random.Generator | int | None = None,
) -> MLMTrainReport:
    """Pretrain on tokenised documents; returns the loss curve and row counts."""
    if not documents:
        raise ConfigError("no documents to pretrain on")
    cfg = model.config
    rng = rng_mod.ensure_rng(rng if rng is not None else cfg.seed + 2)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    report = MLMTrainReport(losses=[])
    for _ in range(cfg.epochs):
        order = rng.permutation(len(documents))
        for start in range(0, len(order), cfg.batch_size):
            batch = [documents[i] for i in order[start : start + cfg.batch_size]]
            ids, mask = encode_batch(batch, model.vocab, cfg.max_len)
            targets_mask = model.draw_targets(ids, mask)
            optimizer.zero_grad()
            loss = model.loss(ids, mask, targets_mask)
            loss.backward()
            optimizer.step()
            report.losses.append(float(loss.data))
            report.positions += ids.size
            report.real_positions += int(mask.sum())
            report.target_positions += int(targets_mask.sum())
    return report
