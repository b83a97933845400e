"""Semantic entity embeddings ``E^Se`` from the pretrained text encoder.

Each entity is embedded by encoding a handful of generated descriptions
(name + topic words) with the masked-language model and averaging the pooled
sentence vectors. The result plays the role of the paper's BERT entity
embeddings: entities about the same topics land close together even if they
never co-occur in user logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.world import World
from repro.embeddings.mlm import MaskedLanguageModel, MLMConfig, MLMTrainReport, train_mlm
from repro.errors import ConfigError
from repro.rng import ensure_rng
from repro.text.tokenizer import WhitespaceTokenizer, encode_batch
from repro.text.vocab import Vocab


@dataclass
class SemanticEncoderConfig:
    """Controls corpus size and the underlying MLM."""

    descriptions_per_entity: int = 3
    description_length: int = 8
    mlm: MLMConfig | None = None
    seed: int = 19


class SemanticEntityEncoder:
    """Build, pretrain and apply the semantic encoder for a world."""

    def __init__(self, world: World, config: SemanticEncoderConfig | None = None) -> None:
        self.world = world
        self.config = config or SemanticEncoderConfig()
        self._tokenizer = WhitespaceTokenizer()
        self._rng = ensure_rng(self.config.seed)
        self._descriptions = self._make_descriptions()
        corpus = [self._tokenizer.tokenize(d) for docs in self._descriptions for d in docs]
        self.vocab = Vocab.build(corpus)
        self.model = MaskedLanguageModel(self.vocab, self.config.mlm)
        self._corpus = corpus
        #: ``train_mlm``'s report once :meth:`pretrain` has run.
        self.pretrain_report: MLMTrainReport | None = None

    def _make_descriptions(self) -> list[list[str]]:
        cfg = self.config
        return [
            [
                self.world.entity_description(e, self._rng, length=cfg.description_length)
                for _ in range(cfg.descriptions_per_entity)
            ]
            for e in range(self.world.num_entities)
        ]

    # ------------------------------------------------------------------
    def pretrain(self, extra_documents: list[list[str]] | None = None) -> "SemanticEntityEncoder":
        """MLM-pretrain on entity descriptions (+ optional behavior texts)."""
        documents = list(self._corpus)
        if extra_documents:
            documents.extend(extra_documents)
        self.pretrain_report = train_mlm(self.model, documents, rng=self.config.seed + 1)
        return self

    def encode_entities(self, method: str = "token_average") -> np.ndarray:
        """``(num_entities, dim)`` L2-normalised semantic embeddings.

        ``method="token_average"`` (default) averages the MLM's learned
        token embeddings over each entity's description tokens — at this
        model scale it is markedly more isotropic (and more discriminative)
        than contextual mean pooling. ``method="pooled"`` uses the full
        contextual encoder, the faithful BERT-style path.
        """
        if method == "token_average":
            vectors = np.stack(
                [self._token_average(e) for e in range(self.world.num_entities)]
            )
        elif method == "pooled":
            per_entity = self.config.descriptions_per_entity
            docs = [
                self._tokenizer.tokenize(d) for descs in self._descriptions for d in descs
            ]
            pooled = []
            batch_size = 64
            for start in range(0, len(docs), batch_size):
                ids, mask = encode_batch(
                    docs[start : start + batch_size], self.vocab, self.model.config.max_len
                )
                pooled.append(self.model.encode(ids, mask))
            flat = np.concatenate(pooled, axis=0)
            vectors = flat.reshape(self.world.num_entities, per_entity, -1).mean(axis=1)
        else:
            raise ConfigError(f"unknown encoding method {method!r}")
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        return vectors / np.maximum(norms, 1e-12)

    def _token_average(self, entity_id: int) -> np.ndarray:
        token_table = self.model.encoder.token_embedding.weight.data
        ids: list[int] = []
        for description in self._descriptions[entity_id]:
            ids.extend(self.vocab.encode(self._tokenizer.tokenize(description)))
        return token_table[ids].mean(axis=0)

    def encode_text(self, text: str, method: str = "token_average") -> np.ndarray:
        """Embed an arbitrary query string (used by the online stage)."""
        tokens = self._tokenizer.tokenize(text)
        if not tokens:
            # A blank query carries no signal: the zero vector is equally
            # (un)similar to every entity.
            return np.zeros(self.model.config.dim)
        if method == "token_average":
            token_table = self.model.encoder.token_embedding.weight.data
            ids = self.vocab.encode(tokens)
            vec = token_table[ids].mean(axis=0)
        else:
            ids, mask = encode_batch([tokens], self.vocab, self.model.config.max_len)
            vec = self.model.encode(ids, mask)[0]
        return vec / max(np.linalg.norm(vec), 1e-12)
