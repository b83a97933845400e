"""User entity preference: embeddings and the serving store."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_owned_read_only
from reference_model import assert_matches_reference, reference_scores
from repro.errors import ConfigError, NotFittedError
from repro.preference import (
    PreferenceStore,
    preference_scores,
    user_embedding,
    user_embedding_matrix,
)
from repro.serving import ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture()
def embeddings(rng):
    vectors = rng.normal(size=(10, 4))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


@pytest.fixture()
def sequences():
    return {
        0: UserEntitySequence(0, [1, 2, 1]),
        1: UserEntitySequence(1, [5]),
        3: UserEntitySequence(3, []),
    }


class TestUserEmbedding:
    def test_mean_of_sequence(self, embeddings):
        emb = user_embedding(embeddings, [1, 2, 1])
        np.testing.assert_allclose(emb, embeddings[[1, 2, 1]].mean(axis=0))

    def test_accepts_sequence_object(self, embeddings):
        seq = UserEntitySequence(9, [3, 4])
        np.testing.assert_allclose(
            user_embedding(embeddings, seq), embeddings[[3, 4]].mean(axis=0)
        )

    def test_empty_sequence_raises(self, embeddings):
        with pytest.raises(ConfigError):
            user_embedding(embeddings, [])

    def test_matrix_covers_only_active_users(self, embeddings, sequences):
        matrix, covered = user_embedding_matrix(embeddings, sequences, num_users=5)
        assert covered.tolist() == [True, True, False, False, False]
        np.testing.assert_allclose(matrix[2], 0.0)
        np.testing.assert_allclose(matrix[1], embeddings[5])

    def test_preference_scores_shape(self, embeddings, sequences):
        matrix, _ = user_embedding_matrix(embeddings, sequences, num_users=5)
        scores = preference_scores(matrix, embeddings, np.array([0, 5, 9]))
        assert scores.shape == (5, 3)


class TestPreferenceStore:
    def test_validation(self, embeddings):
        with pytest.raises(ConfigError):
            PreferenceStore(embeddings, direct_weight=-1)

    def test_requires_build(self, embeddings):
        store = PreferenceStore(embeddings)
        with pytest.raises(NotFittedError):
            store.score_entities([0])
        with pytest.raises(NotFittedError):
            store.top_users_for_entities([0], 2)

    def test_uncovered_users_never_returned(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        users = store.top_users_for_entities([1, 2], k=5)
        assert {u.user_id for u in users} <= {0, 1}

    def test_top_users_sorted(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        users = store.top_users_for_entities([1], k=2)
        assert users[0].score >= users[-1].score

    def test_direct_interaction_boosts_interactors(self, embeddings):
        sequences = {
            0: UserEntitySequence(0, [7, 7, 7]),  # heavy interactor with 7
            1: UserEntitySequence(1, [7]),
        }
        store = PreferenceStore(embeddings, direct_weight=100.0).build(sequences, 2)
        users = store.top_users_for_entity(7, k=2)
        assert users[0].user_id == 0

    def test_zero_direct_weight_is_pure_dot(self, embeddings, sequences):
        store = PreferenceStore(embeddings, direct_weight=0.0, normalize=False).build(
            sequences, num_users=5
        )
        scores = store.score_entities([1])[0]
        assert store.user_ids.tolist() == [0, 1]
        expected = store.user_matrix[0] @ embeddings[1]
        assert scores[0] == pytest.approx(expected)
        assert scores[1] == pytest.approx(embeddings[5] @ embeddings[1])

    def test_top_users_matches_bruteforce(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        scores = reference_scores(embeddings, sequences, 5, [1, 5])
        assert_matches_reference(
            store.top_users_for_entities([1, 5], k=1), scores, 1, sequences
        )

    def test_weighted_average(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        heavy_on_first = store.top_users_for_entities([1, 5], k=2, weights=[100.0, 0.001])
        only_first = store.top_users_for_entities([1], k=2)
        assert [u.user_id for u in heavy_on_first] == [u.user_id for u in only_first]

    def test_weight_shape_validation(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        with pytest.raises(ConfigError):
            store.top_users_for_entities([1, 5], k=1, weights=[1.0])

    def test_empty_entities_raise(self, embeddings, sequences):
        store = PreferenceStore(embeddings).build(sequences, num_users=5)
        with pytest.raises(ConfigError):
            store.top_users_for_entities([], k=1)

    def test_normalization_unit_rows(self, rng):
        raw = rng.normal(size=(6, 3)) * 10
        store = PreferenceStore(raw, normalize=True)
        norms = np.linalg.norm(store.entity_embeddings, axis=1)
        np.testing.assert_allclose(norms, np.ones(6))


def test_artifact_is_one_flat_partition(tmp_path, rng):
    """A published store is one directory of flat arrays, row ``r`` = user
    ``user_ids[r]``, that opens into process memory, read-only, and answers
    like the built store."""
    embeddings = rng.standard_normal((90, 12))
    sequences = {
        u: UserEntitySequence(u, [int(x) for x in rng.integers(0, 90, 5)])
        for u in range(60)
    }
    store = PreferenceStore(embeddings).build(sequences, 60)
    registry = ArtifactRegistry(tmp_path / "registry")
    record = registry.publish_preferences(store)
    assert sorted(p.name for p in Path(record.path).iterdir()) == [
        "entity_embeddings.npy", "entity_ptr.npy", "meta.json",
        "user_ids.npy", "user_matrix.npy", "user_rows.npy", "values.npy",
    ]
    index = registry.open_preferences(record.version)
    assert index.num_users == len(index.user_matrix) == 60
    for name in ("entity_embeddings", "user_ids", "user_matrix", "entity_ptr",
                 "user_rows", "values"):
        assert_owned_read_only(getattr(index, name))
    sets = [[1, 2, 5], [9, 40]]
    assert index.top_users_for_entity_sets(sets, 10) == store.top_users_for_entity_sets(sets, 10)


def test_a_query_allocates_covered_sized_temporaries_only(rng):
    """A query's temporaries are sized by the covered users (and the
    request), not by the user id space or the interaction count: on a
    world with 20,000 user ids, 1,000 covered users and 200,000
    interactions, one call peaks at a small multiple of covered × 8 bytes
    (a kernel scoring every user id and scanning every interaction peaks
    near 2.3 MB here)."""
    num_users, num_entities, covered = 20_000, 400, 1_000
    sequences = {
        u: UserEntitySequence(u, rng.choice(num_entities, 200, replace=False).tolist())
        for u in rng.choice(num_users, covered, replace=False).tolist()
    }
    store = PreferenceStore(rng.normal(size=(num_entities, 8))).build(sequences, num_users)
    assert len(store.values) == 200 * covered
    entity_ids = list(range(0, num_entities, 27))
    store.top_users_for_entities(entity_ids, 10)
    tracemalloc.start()
    try:
        store.top_users_for_entities(entity_ids, 10, weights=np.linspace(1, 2, 15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * covered * 8


def test_one_index_one_layout():
    """Guard: the deleted second index, ``.npz`` copy and demotion chain
    must not come back unnoticed."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    text = {path: path.read_text(encoding="utf-8") for path in src.rglob("*.py")}
    assert sum(b.count("def top_users_for_entity_sets") for b in text.values()) == 1
    for path, body in text.items():
        if path.parent.name == "preference":
            assert not re.search(r"savez|\.npz", body), path
    registry = text[src / "serving" / "registry.py"]
    assert not re.search(r"preferences-[^\n]*\.npz|savez", registry)
    formats = {m for body in text.values() for m in re.findall(r'"pref-[a-z0-9-]+"', body)}
    assert len(formats) == 1
