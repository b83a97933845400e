"""Semantic entity embeddings ``E^Se`` from the pretrained text encoder.

Each entity is embedded by averaging the masked-language model's learned
token embeddings over a handful of generated descriptions (name + topic
words). The result plays the role of the paper's BERT entity
embeddings: entities about the same topics land close together even if they
never co-occur in user logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.world import World
from repro.embeddings.mlm import MaskedLanguageModel, MLMConfig, MLMTrainReport, train_mlm
from repro.rng import ensure_rng
from repro.text.lexicon import Lexicon, token_average
from repro.text.tokenizer import WhitespaceTokenizer
from repro.text.vocab import Vocab


@dataclass
class SemanticEncoderConfig:
    """Controls corpus size and the underlying MLM."""

    descriptions_per_entity: int = 3
    description_length: int = 8
    mlm: MLMConfig | None = None
    seed: int = 19


def entity_descriptions(world: World, config: SemanticEncoderConfig) -> list[list[str]]:
    """The pretrain corpus: ``descriptions_per_entity`` texts per entity,
    drawn from ``config.seed``. Plain strings, so the corpus can cross to
    the stage worker where the world does not."""
    rng = ensure_rng(config.seed)
    return [
        [
            world.entity_description(e, rng, length=config.description_length)
            for _ in range(config.descriptions_per_entity)
        ]
        for e in range(world.num_entities)
    ]


class SemanticEntityEncoder:
    """Build, pretrain and apply the semantic encoder for a world."""

    def __init__(self, world: World, config: SemanticEncoderConfig | None = None) -> None:
        config = config or SemanticEncoderConfig()
        self._setup(entity_descriptions(world, config), config)

    @classmethod
    def from_descriptions(
        cls, descriptions: list[list[str]], config: SemanticEncoderConfig
    ) -> "SemanticEntityEncoder":
        """The encoder of :func:`entity_descriptions`' corpus."""
        encoder = cls.__new__(cls)
        encoder._setup(descriptions, config)
        return encoder

    def _setup(self, descriptions: list[list[str]], config: SemanticEncoderConfig) -> None:
        self.config = config
        self._tokenizer = WhitespaceTokenizer()
        self._descriptions = descriptions
        corpus = [self._tokenizer.tokenize(d) for docs in descriptions for d in docs]
        self.vocab = Vocab.build(corpus)
        self.model = MaskedLanguageModel(self.vocab, self.config.mlm)
        self._corpus = corpus
        #: ``train_mlm``'s report once :meth:`pretrain` has run.
        self.pretrain_report: MLMTrainReport | None = None

    # ------------------------------------------------------------------
    def pretrain(self, extra_documents: list[list[str]] | None = None) -> "SemanticEntityEncoder":
        """MLM-pretrain on entity descriptions (+ optional behavior texts)."""
        documents = list(self._corpus)
        if extra_documents:
            documents.extend(extra_documents)
        self.pretrain_report = train_mlm(self.model, documents, rng=self.config.seed + 1)
        return self

    @property
    def _token_table(self) -> np.ndarray:
        return self.model.encoder.token_embedding.weight.data

    def encode_entities(self) -> np.ndarray:
        """``(num_entities, dim)`` L2-normalised semantic embeddings.

        Each entity is the average of the MLM's learned token embeddings
        over its description tokens — at this model scale markedly more
        isotropic (and more discriminative) than contextual mean pooling.
        """
        vectors = np.stack([self._token_average(ids) for ids in self._descriptions])
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        return vectors / np.maximum(norms, 1e-12)

    def _token_average(self, descriptions: list[str]) -> np.ndarray:
        ids: list[int] = []
        for description in descriptions:
            ids.extend(self.vocab.encode(self._tokenizer.tokenize(description)))
        return self._token_table[ids].mean(axis=0)

    def encode_text(self, text: str) -> np.ndarray:
        """Embed an arbitrary query string (the online fallback's input)."""
        return token_average(self._token_table, self.vocab, self._tokenizer.tokenize(text))

    def lexicon(self) -> Lexicon:
        """What serving keeps of this encoder: vocabulary, token table, ``E^Se``."""
        return Lexicon(self.vocab, self._token_table.copy(), self.encode_entities())
