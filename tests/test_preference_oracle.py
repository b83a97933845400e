"""The served preference index against the reference model.

One oracle (``tests/reference_model.py``) instead of pairwise parity:
every answer of :class:`PreferenceStore` after a publish → open round trip
through the registry — the mapped generation a daily refresh serves — must
equal the per-user model, and must be byte-identical to the store it was
built from.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from reference_model import assert_matches_reference, reference_scores
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
    opened = registry.open_preferences(registry.publish_preferences(store).version)
    assert opened.storage == "memmap"
    return opened


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
    files = {
        "user_matrix": opened.user_matrix,
        "covered": opened.covered_users,
        "row_ptr": opened.row_ptr,
        "col_idx": opened.col_idx,
        "values": opened.values,
    }
    for name, array in files.items():
        assert isinstance(array, np.memmap)
        assert Path(array.filename) == Path(record.path) / f"{name}.npy"
    held = [opened.entity_embeddings, *files.values()]
    assert (num_users, NUM_ENTITIES) not in [np.shape(a) for a in held]
    arrays = {
        k: v for k, v in vars(opened).items()
        if isinstance(v, np.ndarray) and v is not opened.entity_embeddings
    }
    assert all(isinstance(v, np.memmap) for v in arrays.values())
    # first request after the swap runs on the mapped arrays as they are
    opened.top_users_for_entities([3, 11], 5)
    assert all(getattr(opened, k) is v for k, v in arrays.items())
