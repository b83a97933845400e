"""Seeded training ends on recorded bits.

Each test trains one of the library's models on a small seeded world and
compares the sha256 of its parameters with a value written down here. A
change to the autograd engine, a kernel or an optimiser that moves a single
rounding moves the digest, so a change that claims "same bits" is checked
against the recorded values, not only against an oracle that shares its
engine. CI runs this file at one and two BLAS threads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    BehaviorConfig,
    BehaviorLogGenerator,
    World,
    WorldConfig,
    make_link_prediction_split,
)
from repro.embeddings import SemanticEncoderConfig, SemanticEntityEncoder, SkipGramConfig, SkipGramModel
from repro.embeddings.mlm import MLMConfig
from repro.text import EntityDict, EntitySequenceExtractor, NERTagger, Vocab, make_ner_examples, train_ner
from repro.trmp import (
    ALPCConfig,
    ALPCLinkPredictor,
    CandidateGenerator,
    EnsembleConfig,
    EnsembleLinkPredictor,
)


def parameters_digest(module) -> str:
    digest = hashlib.sha256()
    for parameter in module.parameters():
        digest.update(parameter.data.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def small_world() -> World:
    return World(WorldConfig(num_entities=60, num_users=40, seed=8))


@pytest.fixture(scope="module")
def small_events(small_world):
    return BehaviorLogGenerator(small_world, BehaviorConfig(num_days=7, seed=9)).generate()


@pytest.fixture(scope="module")
def pretrained(small_world):
    config = SemanticEncoderConfig(mlm=MLMConfig(epochs=2, seed=3))
    return SemanticEntityEncoder(small_world, config).pretrain()


@pytest.fixture(scope="module")
def small_split_and_features(small_world, small_events, pretrained):
    extractor = EntitySequenceExtractor(EntityDict.from_world(small_world))
    sequences = extractor.corpus_sequences(small_events)
    skipgram = SkipGramModel(small_world.num_entities, SkipGramConfig(epochs=3, seed=2))
    e_cooccurrence = skipgram.fit(sequences).normalized_vectors()
    e_semantic = pretrained.encode_entities()
    candidate = CandidateGenerator().generate(e_cooccurrence, e_semantic)
    split = make_link_prediction_split(candidate.graph, rng=11)
    return split, candidate.node_features, e_semantic


@pytest.fixture(scope="module")
def small_alpc(small_split_and_features):
    split, features, e_semantic = small_split_and_features
    return ALPCLinkPredictor(ALPCConfig(epochs=3, seed=1)).fit(split, features, e_semantic)


def test_train_mlm(pretrained):
    assert parameters_digest(pretrained.model) == (
        "0b43467fc2a126bccd4217bdf1f3f2c8c0424a09785949d2ee4b28fd48fa30a7"
    )


def test_train_ner(small_events):
    examples = make_ner_examples(small_events[:96])
    vocab = Vocab.build([tokens for tokens, _ in examples])
    tagger = NERTagger(len(vocab), rng=0)
    train_ner(tagger, vocab, examples, epochs=2, rng=0)
    assert parameters_digest(tagger) == (
        "ce9964ad16929a5a3970252c564b1221e5f2b48fa40a0f38856f931f0185d7b4"
    )


def test_alpc_fit(small_alpc):
    assert parameters_digest(small_alpc.model) == (
        "6bc92b09270054cc2fffa46632a485c39c75aeda4d58d91094473a525c905530"
    )


def test_ensemble_fit(small_alpc, small_split_and_features):
    split = small_split_and_features[0]
    z = small_alpc.node_embeddings
    snapshots = [z, z + np.random.default_rng(0).normal(0.0, 0.05, size=z.shape)]
    model = EnsembleLinkPredictor(EnsembleConfig(epochs=3, seed=0)).fit(snapshots, split)
    assert parameters_digest(model.model) == (
        "204b7fe35c97b33ba62c3d9d3b804b5ce2ffb37a27a831edbf3c4d46e0a52867"
    )
