"""The preference index against the reference model, at every partition count.

One oracle (``tests/reference_model.py``) instead of pairwise parity: every
answer of :class:`PreferenceStore` at P ∈ {1, 2, 4, 8} — in memory and
after a publish → open round trip through the registry — must equal the
per-user model, and must be byte-identical across P.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from reference_model import assert_matches_reference, reference_scores
from repro.preference import PreferenceStore
from repro.serving import ArtifactRegistry
from repro.text.sequence_extractor import UserEntitySequence

PARTITIONS = [1, 2, 4, 8]
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


def serve(store: PreferenceStore, n_shards: int, published_under: Path | None):
    store = store.partitioned(n_shards)
    if published_under is None:
        return store
    registry = ArtifactRegistry(root=published_under)
    record = registry.publish_preferences(store)
    opened = registry.open_preferences(record.version)
    assert opened.storage == "memmap" and opened.n_shards == n_shards
    return opened


def answers(store: PreferenceStore, ks: list[int]) -> list:
    out = [store.top_users_for_entities(ids, k, weights=w) for ids, w in REQUESTS for k in ks]
    out.append(store.top_users_for_entity(4, ks[-1]))
    return out


@pytest.mark.parametrize("world_name", sorted(WORLDS))
@pytest.mark.parametrize("published", [False, True], ids=["memory", "published"])
def test_every_partitioning_equals_reference(world_name, published, tmp_path):
    embeddings, sequences, num_users = WORLDS[world_name]()
    covered = sum(1 for s in sequences.values() if len(s))
    # below the covered count, and above it (and above the old 200-user
    # head cache, where the dense store used to stop short)
    ks = [10, covered + 25]
    built = PreferenceStore(embeddings).build(sequences, num_users)
    baseline = answers(built, ks)
    model = {
        tuple(ids): reference_scores(embeddings, sequences, num_users, ids, w)
        for ids, w in REQUESTS + [([4], None)]
    }
    for n_shards in PARTITIONS:
        store = serve(built, n_shards, tmp_path / f"p{n_shards}" if published else None)
        got = answers(store, ks)
        # byte-identical across partition counts and across the round trip
        assert got == baseline
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
        # score_entity is the same rule for one entity, for every user
        column, single = store.score_entity(17), model[(17,)]
        assert np.isneginf(column[[u for u in range(num_users) if u not in single]]).all()
        assert np.allclose([column[u] for u in single], list(single.values()), atol=1e-9, rtol=0)


def test_open_maps_the_published_files_and_nothing_dense(tmp_path):
    """The open is O(1) in index size: no checksum pass, no format
    conversion — the kernel's arrays *are* the mapped files."""
    embeddings, sequences, num_users = random_world()
    registry = ArtifactRegistry(root=tmp_path)
    record = registry.publish_preferences(
        PreferenceStore(embeddings).build(sequences, num_users)
    )
    opened = registry.open_preferences(record.version)
    (part,) = opened._parts
    for name in ("user_ids", "user_matrix", "covered", "row_ptr", "col_idx", "values"):
        array = getattr(part, name)
        assert isinstance(array, np.memmap)
        assert Path(array.filename) == Path(record.path) / "shard-00" / f"{name}.npy"
    assert opened.user_matrix is part.user_matrix
    assert opened.covered_users is part.covered
    held = [opened.entity_embeddings, *vars(part).values()]
    assert (num_users, NUM_ENTITIES) not in [np.shape(a) for a in held]
    assert not any(isinstance(v, np.ndarray) for v in vars(opened).values() if v is not opened.entity_embeddings)
    # first request after the swap runs on the mapped arrays as they are
    opened.top_users_for_entities([3, 11], 5)
    assert all(getattr(opened._parts[0], n) is getattr(part, n) for n in vars(part))


def test_update_user_matches_rebuild_at_every_partitioning():
    embeddings, sequences, num_users = random_world(seed=3, num_users=60)
    changes = [
        UserEntitySequence(7, [4, 4, 9]),  # longer row
        UserEntitySequence(8, []),  # uncovers the user
        UserEntitySequence(58, [17]),  # covers a new user
    ]
    after = {**sequences, **{c.user_id: c for c in changes}}
    rebuilt = answers(PreferenceStore(embeddings).build(after, num_users), [10])
    for n_shards in PARTITIONS:
        store = PreferenceStore(embeddings).build(sequences, num_users).partitioned(n_shards)
        for change in changes:
            store.update_user(change)
        assert answers(store, [10]) == rebuilt
