"""The served preference index against the reference model.

One oracle (``tests/reference_model.py``) instead of pairwise parity:
every answer of :class:`PreferenceStore` after a publish → open round trip
through the registry — the mapped generation a daily refresh serves — must
equal the per-user model, and must be byte-identical to the store it was
built from. A second, byte-level oracle is the ``pref-mm-v3`` kernel
(``DenseV3PreferenceIndex`` in ``tests/helpers.py``): the covered-rows,
by-entity index must give its answers and its drift metrics bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from helpers import DenseV3PreferenceIndex, assert_owned_read_only
from reference_model import assert_matches_reference, reference_scores
from repro.obs.drift import compare_preference_stores, default_probe_entities
from repro.preference import PreferenceStore
from repro.serving import ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence

NUM_ENTITIES = 40
DIM = 8
#: (entity ids, weights): unweighted, weighted, a repeated entity, both.
REQUESTS = [
    ([3, 11, 27], None),
    ([3, 11, 27, 5], [0.7, 0.1, 2.0, 0.4]),
    ([4, 4, 9], None),
    ([4, 9, 4], [1.0, 0.5, 0.25]),
    ([17], None),
]


def random_world(seed=0, num_users=120):
    """Random sequences of length 0-7; a few users stay uncovered."""
    rng = np.random.default_rng(seed)
    sequences = {
        u: UserEntitySequence(
            u, [int(e) for e in rng.integers(0, NUM_ENTITIES, rng.integers(0, 8))]
        )
        for u in range(num_users - 5)
    }
    return rng.normal(size=(NUM_ENTITIES, DIM)), sequences, num_users


def tied_world(seed=1, num_users=300):
    """Six distinct sequences shared by 300 users: every score is an exact
    tie among ~50 users, so the order is decided by user id alone."""
    rng = np.random.default_rng(seed)
    distinct = [[int(e) for e in rng.integers(0, NUM_ENTITIES, 4)] for _ in range(6)]
    distinct[0] = [4, 4, 9, 17]
    sequences = {
        u: UserEntitySequence(u, list(distinct[int(rng.integers(0, 6))]))
        for u in range(num_users)
    }
    return rng.normal(size=(NUM_ENTITIES, DIM)), sequences, num_users


WORLDS = {"random": random_world, "tied": tied_world}


def publish(store: PreferenceStore, root: Path) -> PreferenceStore:
    """The generation a daily refresh serves: published, then opened."""
    registry = ArtifactRegistry(root=root)
    return registry.open_preferences(registry.publish_preferences(store).version)


def answers(store: PreferenceStore, ks: list[int]) -> list:
    out = [store.top_users_for_entities(ids, k, weights=w) for ids, w in REQUESTS for k in ks]
    out.append(store.top_users_for_entity(4, ks[-1]))
    return out


@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_published_index_equals_reference(world_name, tmp_path):
    embeddings, sequences, num_users = WORLDS[world_name]()
    covered = sum(1 for s in sequences.values() if len(s))
    # below the covered count, and above it (and above the old 200-user
    # head cache, where the dense store used to stop short)
    ks = [10, covered + 25]
    built = PreferenceStore(embeddings).build(sequences, num_users)
    store = publish(built, tmp_path)
    model = {
        tuple(ids): reference_scores(embeddings, sequences, num_users, ids, w)
        for ids, w in REQUESTS + [([4], None)]
    }
    got = answers(store, ks)
    # byte-identical across the round trip
    assert got == answers(built, ks)
    cases = [(ids, w, k) for ids, w in REQUESTS for k in ks] + [([4], None, ks[-1])]
    for (ids, _, k), users in zip(cases, got):
        assert_matches_reference(users, model[tuple(ids)], k, sequences)
        assert len(users) == min(k, covered)
    # one batched call over all sets answers like the model too
    batch = store.top_users_for_entity_sets(
        [ids for ids, _ in REQUESTS], ks[0], [w for _, w in REQUESTS]
    )
    for (ids, _), users in zip(REQUESTS, batch):
        assert_matches_reference(users, model[tuple(ids)], ks[0], sequences)
    # score_entities is the same rule for one entity, for every covered
    # user, and holds no other user
    column, single = store.score_entities([17])[0], model[(17,)]
    assert store.user_ids.tolist() == sorted(single)
    assert np.allclose(column, [single[u] for u in sorted(single)], atol=1e-9, rtol=0)


def test_open_proves_the_published_files_and_holds_nothing_dense(tmp_path):
    """The kernel's arrays are the published files' bytes, read once into
    process memory, read-only: no format conversion, no dense matrix."""
    embeddings, sequences, num_users = random_world()
    registry = ArtifactRegistry(root=tmp_path)
    record = registry.publish_preferences(
        PreferenceStore(embeddings).build(sequences, num_users)
    )
    opened = registry.open_preferences(record.version)
    files = {
        "user_ids": opened.user_ids,
        "user_matrix": opened.user_matrix,
        "entity_ptr": opened.entity_ptr,
        "user_rows": opened.user_rows,
        "values": opened.values,
    }
    for name, array in files.items():
        assert_owned_read_only(array)
        assert np.array_equal(array, np.load(Path(record.path) / f"{name}.npy"))
    held = [opened.entity_embeddings, *files.values()]
    assert (num_users, NUM_ENTITIES) not in [np.shape(a) for a in held]
    arrays = {k: v for k, v in vars(opened).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 6
    # first request after the swap runs on the proven arrays as they are
    opened.top_users_for_entities([3, 11], 5)
    assert all(getattr(opened, k) is v for k, v in arrays.items())


# ----------------------------------------------------------------------
# Byte equality with the pref-mm-v3 kernel (tests/helpers.py)
# ----------------------------------------------------------------------
def empty_world(seed=3, num_users=50):
    """No user has behaviour in the window: nothing is covered."""
    rng = np.random.default_rng(seed)
    sequences = {u: UserEntitySequence(u, []) for u in range(num_users)}
    return rng.normal(size=(NUM_ENTITIES, DIM)), sequences, num_users


def unposted_world(seed=4, num_users=150):
    """Sequences over entities 0-29 only: entities 30-39 have no postings."""
    rng = np.random.default_rng(seed)
    sequences = {
        u: UserEntitySequence(u, [int(e) for e in rng.integers(0, 30, rng.integers(0, 6))])
        for u in range(num_users)
    }
    return rng.normal(size=(NUM_ENTITIES, DIM)), sequences, num_users


def dense_world(seed=5, num_users=120):
    """Long sequences: most users interact with many entities of a wide
    set, so the order in which the direct term is summed shows."""
    rng = np.random.default_rng(seed)
    sequences = {
        u: UserEntitySequence(
            u, [int(e) for e in rng.integers(0, NUM_ENTITIES, rng.integers(20, 40))]
        )
        for u in range(num_users)
    }
    return rng.normal(size=(NUM_ENTITIES, DIM)), sequences, num_users


#: name → (world, direct_weight). "no-interaction" scores without the
#: direct-interaction term.
ORACLE_WORLDS = {
    "dense": (dense_world, 25.0),
    "random": (random_world, 25.0),
    "tied": (tied_world, 25.0),
    "no-interaction": (random_world, 0.0),
    "no-covered": (empty_world, 25.0),
    "unposted": (unposted_world, 25.0),
}
#: REQUESTS plus sets holding an entity no user interacted with, and a
#: wide weighted set.
ORACLE_REQUESTS = REQUESTS + [
    ([33], None),
    ([3, 33, 3], [1.0, 2.0, 0.5]),
    (list(range(0, 40, 2)), [0.1 + 0.37 * i for i in range(20)]),
]


def bits(audience) -> list:
    """An answer as user ids and the exact bytes of each score."""
    return [(u.user_id, np.float64(u.score).tobytes()) for u in audience]


def stores(world_name, tmp_path):
    """(v3 oracle, built v4 store, the v4 store after publish → open)."""
    make, direct_weight = ORACLE_WORLDS[world_name]
    embeddings, sequences, num_users = make()
    oracle = DenseV3PreferenceIndex(
        embeddings, sequences, num_users, direct_weight=direct_weight
    )
    built = PreferenceStore(embeddings, direct_weight=direct_weight).build(
        sequences, num_users
    )
    return oracle, built, publish(built, tmp_path)


@pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
def test_answers_are_the_v3_kernel_bytes(world_name, tmp_path):
    """Every answer, single or batched, below and at or above the covered
    count, before and after the round trip, has the users, the order and
    the score bits of the ``pref-mm-v3`` kernel."""
    oracle, built, opened = stores(world_name, tmp_path)
    covered = int(oracle.covered_users.sum())
    assert built.user_ids.tolist() == np.flatnonzero(oracle.covered_users).tolist()
    ks = [1, 10, covered, covered + 25]
    sets = [ids for ids, _ in ORACLE_REQUESTS]
    weights = [w for _, w in ORACLE_REQUESTS]
    for store in (built, opened):
        for (ids, w), k in [(request, k) for request in ORACLE_REQUESTS for k in ks]:
            want = oracle.top_users_for_entities(ids, k, weights=w)
            assert bits(store.top_users_for_entities(ids, k, weights=w)) == bits(want)
        for k in ks:
            want = oracle.top_users_for_entity_sets(sets, k, weights)
            got = store.top_users_for_entity_sets(sets, k, weights)
            assert [bits(a) for a in got] == [bits(a) for a in want]
        assert bits(store.top_users_for_entity(33, covered)) == bits(
            oracle.top_users_for_entity(33, covered)
        )


@pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
def test_drift_metrics_are_the_v3_bytes(world_name, tmp_path):
    """The activation check measures a v4 transition exactly as it measured
    the same transition between v3 indexes."""
    old_oracle, old, _ = stores("random", tmp_path / "old")
    new_oracle, _, new = stores(world_name, tmp_path / "new")
    probes = default_probe_entities(NUM_ENTITIES, 16)
    want = compare_preference_stores(old_oracle, new_oracle, probes)
    assert repr(compare_preference_stores(old, new, probes)) == repr(want)
