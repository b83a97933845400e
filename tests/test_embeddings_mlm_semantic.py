"""Masked-language model and semantic entity encoder."""

import numpy as np
import pytest

from repro.embeddings import MaskedLanguageModel, MLMConfig, SemanticEncoderConfig, SemanticEntityEncoder, train_mlm
from repro.errors import ConfigError
from repro.text import Vocab

from helpers import composed_cross_entropy, plain_gelu


class TestMLM:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MLMConfig(mask_prob=0.0).validate()
        with pytest.raises(ConfigError):
            MLMConfig(dim=30, num_heads=4).validate()

    def test_loss_decreases(self, rng):
        vocab = Vocab([f"w{i}" for i in range(20)])
        docs = [[f"w{i}", f"w{(i+1) % 20}", f"w{(i+2) % 20}"] for i in range(20)] * 4
        model = MaskedLanguageModel(vocab, MLMConfig(epochs=4, dim=16, max_len=6, seed=0))
        report = train_mlm(model, docs, rng=0)
        first = np.mean(report.losses[:5])
        last = np.mean(report.losses[-5:])
        assert last < first

    @staticmethod
    def three_steps():
        vocab = Vocab([f"w{i}" for i in range(20)])
        docs = [[f"w{(i + j) % 20}" for j in range(1 + i % 6)] for i in range(24)]
        model = MaskedLanguageModel(
            vocab, MLMConfig(epochs=1, batch_size=8, dim=16, max_len=6, seed=3)
        )
        report = train_mlm(model, docs, rng=1)
        return report, b"".join(p.data.tobytes() for p in model.parameters())

    def test_row_selective_kernels_train_the_same_bits(self, monkeypatch):
        report, parameters = self.three_steps()
        monkeypatch.setattr("repro.embeddings.mlm.cross_entropy", composed_cross_entropy)
        monkeypatch.setattr("repro.nn.transformer.gelu", plain_gelu)
        oracle_report, oracle_parameters = self.three_steps()
        assert len(report.losses) == 3
        assert report == oracle_report
        assert parameters == oracle_parameters

    def test_report_counts_the_rows_that_are_read(self):
        report, _ = self.three_steps()
        assert report.positions == 24 * 6  # batch x max_len, summed over steps
        assert report.real_positions == sum(1 + i % 6 for i in range(24))
        assert 3 <= report.target_positions < report.real_positions < report.positions

    def test_empty_documents_raise(self):
        model = MaskedLanguageModel(Vocab(["a"]), MLMConfig(epochs=1))
        with pytest.raises(ConfigError):
            train_mlm(model, [])


class TestSemanticEncoder:
    def test_pretrain_keeps_the_report(self, world, semantic_encoder):
        assert SemanticEntityEncoder(world).pretrain_report is None
        report = semantic_encoder.pretrain_report
        assert report.positions % semantic_encoder.model.config.max_len == 0
        assert 0 < report.target_positions < report.real_positions < report.positions

    def test_embeddings_unit_norm(self, e_semantic, world):
        assert e_semantic.shape[0] == world.num_entities
        np.testing.assert_allclose(
            np.linalg.norm(e_semantic, axis=1), np.ones(world.num_entities), atol=1e-9
        )

    def test_same_topic_more_similar_than_cross(self, world, e_semantic):
        rel = world.relatedness_matrix()
        iu = np.triu_indices(world.num_entities, 1)
        sims = e_semantic @ e_semantic.T
        same = sims[iu][rel[iu] > 0.8]
        cross = sims[iu][rel[iu] < 0.2]
        assert same.mean() > cross.mean()

    def test_encode_text_near_topic_entities(self, world, semantic_encoder, e_semantic):
        entity = world.entities[0]
        query = semantic_encoder.encode_text(entity.name.lower())
        sims = e_semantic @ query
        top = int(np.argmax(sims))
        # The nearest entity should share the query entity's primary topic.
        assert world.entities[top].primary_topic == entity.primary_topic
