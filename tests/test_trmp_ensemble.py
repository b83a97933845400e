"""TRMP Stage III: the snapshot ensemble."""

import numpy as np
import pytest

from repro.errors import ConfigError, NotFittedError
from repro.eval import roc_auc
from repro.tensor import Tensor
from repro.tensor.tensor import weight_grad_chunk_rows
from repro.trmp import EnsembleConfig, EnsembleLinkPredictor, EnsembleModel

from helpers import summed_weight_grad


class TestModel:
    def test_forward_shape(self, rng):
        model = EnsembleModel(snapshot_dim=8, config=EnsembleConfig(model_dim=16))
        tokens = Tensor(rng.normal(size=(5, 6, 8)))  # batch 5, 2*3 snapshots
        out = model(tokens)
        assert out.shape == (5,)


class TestPredictor:
    def test_needs_snapshots(self, split):
        with pytest.raises(ConfigError):
            EnsembleLinkPredictor().fit([], split)

    def test_not_fitted_guards(self):
        model = EnsembleLinkPredictor()
        with pytest.raises(NotFittedError):
            model.predict_pairs(np.array([[0, 1]]))
        with pytest.raises(NotFittedError):
            model.entity_embeddings()

    def test_fit_and_predict(self, split, trained_alpc):
        z = trained_alpc.node_embeddings
        rng = np.random.default_rng(0)
        snapshots = [z, z + rng.normal(0, 0.05, size=z.shape)]
        model = EnsembleLinkPredictor(EnsembleConfig(epochs=25, seed=0))
        model.fit(snapshots, split)
        pairs, labels = split.test_pairs_and_labels()
        scores = model.predict_pairs(pairs)
        assert (scores >= 0).all() and (scores <= 1).all()
        assert roc_auc(labels, scores) > 0.7

    def test_entity_embeddings_concatenate_in_order(self, split, trained_alpc):
        z = trained_alpc.node_embeddings
        snapshots = [z, 2 * z, 3 * z]
        model = EnsembleLinkPredictor(EnsembleConfig(epochs=1, seed=0))
        model.fit(snapshots, split)
        h = model.entity_embeddings()
        n, d = z.shape
        assert h.shape == (n, 3 * d)
        np.testing.assert_allclose(h[:, :d], z)
        np.testing.assert_allclose(h[:, d : 2 * d], 2 * z)
        np.testing.assert_allclose(h[:, 2 * d :], 3 * z)

    def test_pair_tokens_layout(self, split, trained_alpc):
        z = trained_alpc.node_embeddings
        model = EnsembleLinkPredictor(EnsembleConfig(epochs=1, seed=0))
        model.fit([z, z + 1.0], split)
        pairs = np.array([[3, 7]])
        tokens = model._pair_tokens(pairs)
        assert tokens.shape == (1, 4, z.shape[1])
        np.testing.assert_allclose(tokens[0, 0], z[3])
        np.testing.assert_allclose(tokens[0, 1], z[3] + 1.0)
        np.testing.assert_allclose(tokens[0, 2], z[7])

    def test_chunked_weight_grads_train_the_same_bits(
        self, split, trained_alpc, monkeypatch
    ):
        """Seeded training with the chunked weight gradient ends on exactly
        the parameters the one-shot ``(B, k, n)`` sum trains to."""
        z = trained_alpc.node_embeddings
        snapshots = [z, z + 0.5]
        # Every (model_dim × model_dim) weight's gradient spans several chunks.
        chunk = weight_grad_chunk_rows(z.shape[1], EnsembleConfig().model_dim, 8)
        assert len(split.train_pairs_and_labels()[0]) > 2 * chunk

        def fitted_parameters():
            model = EnsembleLinkPredictor(EnsembleConfig(epochs=3, seed=0))
            model.fit(snapshots, split)
            return [p.data.copy() for p in model.model.parameters()]

        chunked = fitted_parameters()
        monkeypatch.setattr(
            "repro.tensor.tensor._batched_weight_grad", summed_weight_grad
        )
        one_shot = fitted_parameters()
        assert len(chunked) == len(one_shot)
        for mine, oracle in zip(chunked, one_shot):
            assert mine.tobytes() == oracle.tobytes()
