"""NER tagger: transformer encoder + linear-chain CRF (the BertCRF stand-in).

Paper §III-A.2 extracts entities from each behavior text with a BertCRF
model and keeps spans that align with the Entity Dict. We reproduce the
architecture class (contextual encoder + CRF structured decoding) at a size
trainable in seconds, with BIO tagging and dictionary-aligned linking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import rng as rng_mod
from repro.datasets.behavior import BehaviorLog
from repro.errors import ConfigError
from repro.nn import LinearChainCRF, Linear, Module, TransformerEncoder
from repro.tensor import Adam, Tensor, no_grad
from repro.text.entity_dict import EntityDict, EntityEntry
from repro.text.tokenizer import encode_batch
from repro.text.vocab import Vocab

TAG_O = 0
TAG_B = 1
TAG_I = 2
NUM_TAGS = 3


class NERTagger(Module):
    """BIO tagger over token sequences."""

    def __init__(
        self,
        vocab_size: int,
        dim: int = 32,
        num_layers: int = 1,
        num_heads: int = 2,
        max_len: int = 24,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        rng = rng_mod.ensure_rng(rng)
        self.max_len = max_len
        self.encoder = TransformerEncoder(
            vocab_size, dim, num_layers, num_heads, max_len, rng=rng
        )
        self.emission_head = Linear(dim, NUM_TAGS, rng)
        self.crf = LinearChainCRF(NUM_TAGS)

    def emissions(self, token_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        hidden = self.encoder(token_ids, key_padding_mask=mask)
        return self.emission_head(hidden)

    def loss(self, token_ids: np.ndarray, tags: np.ndarray, mask: np.ndarray) -> Tensor:
        return self.crf.neg_log_likelihood(self.emissions(token_ids, mask), tags, mask)

    def predict(self, token_ids: np.ndarray, mask: np.ndarray) -> list[list[int]]:
        with no_grad():
            emissions = self.emissions(token_ids, mask)
        return self.crf.decode(emissions.data, mask)


# ----------------------------------------------------------------------
# Training data from behavior logs
# ----------------------------------------------------------------------
def make_ner_examples(events: BehaviorLog) -> list[tuple[list[str], list[int]]]:
    """Turn gold mention spans into (tokens, BIO tags) pairs."""
    examples = []
    for event in events:
        tokens = event.tokens
        tags = [TAG_O] * len(tokens)
        for mention in event.mentions:
            tags[mention.start] = TAG_B
            for i in range(mention.start + 1, mention.end + 1):
                tags[i] = TAG_I
        examples.append((tokens, tags))
    return examples


@dataclass
class NERTrainReport:
    losses: list[float]
    token_accuracy: float


def train_ner(
    tagger: NERTagger,
    vocab: Vocab,
    examples: list[tuple[list[str], list[int]]],
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 5e-3,
    rng: np.random.Generator | int | None = None,
) -> NERTrainReport:
    """Mini-batch CRF-NLL training with Adam; returns loss curve + accuracy."""
    if not examples:
        raise ConfigError("no NER training examples")
    rng = rng_mod.ensure_rng(rng)
    optimizer = Adam(tagger.parameters(), lr=lr)
    losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            ids, mask, tags = _encode_tagged_batch(batch, vocab, tagger.max_len)
            optimizer.zero_grad()
            loss = tagger.loss(ids, tags, mask)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
    # Token accuracy of the trained tagger over its own examples.
    correct = total = 0
    for start in range(0, len(examples), 64):
        batch = examples[start : start + 64]
        ids, mask, tags = _encode_tagged_batch(batch, vocab, tagger.max_len)
        for row, path in enumerate(tagger.predict(ids, mask)):
            correct += int((np.asarray(path) == tags[row, : len(path)]).sum())
            total += len(path)
    return NERTrainReport(losses=losses, token_accuracy=correct / total if total else 0.0)


def _encode_tagged_batch(
    batch: list[tuple[list[str], list[int]]],
    vocab: Vocab,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    token_lists = [tokens for tokens, _ in batch]
    ids, mask = encode_batch(token_lists, vocab, max_len)
    tags = np.zeros_like(ids)
    for row, (_, tag_seq) in enumerate(batch):
        seq = tag_seq[:max_len]
        tags[row, : len(seq)] = seq
    return ids, mask, tags


# ----------------------------------------------------------------------
# Extraction (tag → span → Entity Dict alignment)
# ----------------------------------------------------------------------
def spans_from_tags(tags: list[int]) -> list[tuple[int, int]]:
    """Decode BIO tags to (start, end_inclusive) spans."""
    spans: list[tuple[int, int]] = []
    start: int | None = None
    for i, tag in enumerate(tags):
        if tag == TAG_B:
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif tag == TAG_I:
            if start is None:  # tolerate I without B
                start = i
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


def extract_entities(
    tagger: NERTagger,
    vocab: Vocab,
    tokens: list[str],
    entity_dict: EntityDict,
) -> list[EntityEntry]:
    """Run the tagger on one token list and link spans via the Entity Dict.

    Spans whose surface form is not in the Entity Dict are dropped — the
    content-alignment step that keeps the output entity-level uniform.
    """
    ids, mask = encode_batch([tokens], vocab, tagger.max_len)
    tags = tagger.predict(ids, mask)[0]
    entries: list[EntityEntry] = []
    for start, end in spans_from_tags(tags):
        surface = " ".join(tokens[start : end + 1]).lower()
        entry = entity_dict.get(surface)
        if entry is not None:
            entries.append(entry)
    return entries
