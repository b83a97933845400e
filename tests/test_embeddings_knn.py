"""Exact all-pairs cosine top-k."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import knn
from repro.embeddings.knn import all_pairs_topk
from repro.errors import ConfigError


def naive_all_pairs(vectors: np.ndarray, k: int):
    """The full cosine matrix, self excluded, each row sorted descending."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    k = min(k, len(vectors) - 1)
    ids = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(sims, ids, axis=1)


class TestBruteForce:
    def test_rejects_non_matrix(self):
        with pytest.raises(ConfigError):
            all_pairs_topk(np.zeros(5), 3)

    def test_all_pairs_topk_matches_per_query(self, rng, monkeypatch):
        vectors = rng.normal(size=(25, 6))
        monkeypatch.setattr(knn, "BLOCK_SIZE", 7)  # force multiple blocks
        ids, scores = all_pairs_topk(vectors, 4)
        nids, nscores = naive_all_pairs(vectors, 4)
        np.testing.assert_array_equal(ids, nids)
        np.testing.assert_allclose(scores, nscores)

    def test_no_self_matches(self, rng):
        vectors = rng.normal(size=(15, 4))
        ids, _ = all_pairs_topk(vectors, 5)
        for u in range(15):
            assert u not in ids[u]

    @given(st.integers(2, 12), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_k_clamped_to_population(self, n, k):
        rng = np.random.default_rng(n * 13 + k)
        vectors = rng.normal(size=(n, 3))
        ids, scores = all_pairs_topk(vectors, k)
        assert ids.shape == (n, min(k, n - 1))
        # Scores sorted descending per row.
        assert (np.diff(scores, axis=1) <= 1e-12).all()
        nids, nscores = naive_all_pairs(vectors, k)
        np.testing.assert_array_equal(ids, nids)
        np.testing.assert_allclose(scores, nscores)
