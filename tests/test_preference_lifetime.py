"""A preference generation leaves memory when it leaves service.

* the serving runtime retains each kind in its own slot: the graph rollback
  slot never pins a preference generation, so generation 1 is unreachable
  once two newer ones have been activated;
* a mapped generation that leaves ``_active`` (by swap or by rollback)
  gives up its resident pages but stays mapped: a rollback serves it again
  with the same answers;
* the activation check reads the incoming generation from its files, so a
  swap leaves it unmapped until a request reads it;
* a request that holds the outgoing generation across the swap is the one
  that releases it, when it leaves;
* the daily refresh builds in a stage worker that is reaped before the
  published generation is opened.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.preference.store import PreferenceStore
from repro.serving import ServingRuntime
from repro.text.sequence_extractor import UserEntitySequence
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig

from helpers import child_pids
from reference_model import assert_matches_reference, reference_scores

SMAPS = Path("/proc/self/smaps")


@pytest.fixture(scope="module")
def small_world():
    return World(WorldConfig(num_entities=60, num_users=50, seed=9))


@pytest.fixture(scope="module")
def small_events(small_world):
    return BehaviorLogGenerator(small_world, BehaviorConfig(num_days=10, seed=4)).generate()


def rooted_system(world, root) -> EGLSystem:
    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=6, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=3, seed=3)),
        alpc=ALPCConfig(epochs=12, seed=1),
        ensemble=EnsembleConfig(epochs=8, seed=0),
    )
    return EGLSystem(
        world, config, artifact_root=root, obs=Observability(clock=ManualClock())
    )


def test_retired_preference_generation_is_unreachable(small_world, small_events, tmp_path):
    """Week 0, a daily, week 1, two dailies: generation 1 is neither active
    nor the preference rollback slot, and nothing else may keep it."""
    system = rooted_system(small_world, tmp_path)
    system.weekly_refresh(small_events)
    system.daily_preference_refresh(small_events)
    generation_1 = weakref.ref(system.preference_store)
    system.weekly_refresh(small_events)
    system.daily_preference_refresh(small_events)
    system.daily_preference_refresh(small_events)
    assert system.runtime.versions()["preference_version"] == 3

    gc.collect()
    assert generation_1() is None

    runtime = system.runtime
    graph_slot, preference_slot = runtime._previous_graph, runtime._previous_preferences
    assert graph_slot.graph_version == 1 and graph_slot.reasoner is not None
    assert graph_slot.preference_store is None and graph_slot.targeting is None
    assert preference_slot.preference_version == 2
    assert preference_slot.reasoner is None and preference_slot.graph_version is None


def test_daily_refresh_builds_in_a_worker_reaped_before_the_open(
    small_world, small_events, tmp_path, monkeypatch
):
    """The daily builds nothing in this process, and its stage worker is
    reaped before the published generation is opened, so the open and
    the scoring of the mapped generation never run beside the build."""
    system = rooted_system(small_world, tmp_path)
    system.weekly_refresh(small_events)
    registry = system.registry
    open_preferences = registry.open_preferences
    children_at_open = []

    def open_after_the_worker_is_gone(version=None):
        children_at_open.append(child_pids())
        return open_preferences(version)

    def no_build(*args, **kwargs):
        raise AssertionError("the serving process built a preference index")

    monkeypatch.setattr(registry, "open_preferences", open_after_the_worker_is_gone)
    monkeypatch.setattr(PreferenceStore, "build", no_build)
    assert system.daily_preference_refresh(small_events) > 0
    assert children_at_open == [[]]
    assert system.runtime.versions()["preference_version"] == 1


def mapping_rss_kb(path: Path) -> list[int]:
    """``Rss`` of every mapping of ``path`` in this process, in kB."""
    target = str(path.resolve())
    found, current = [], False
    for line in SMAPS.read_text(encoding="ascii", errors="replace").splitlines():
        fields = line.split()
        if fields and "-" in fields[0] and not fields[0].endswith(":"):
            current = line.rstrip().endswith(target)
        elif current and fields[0] == "Rss:":
            found.append(int(fields[1]))
    return found


def build_store(num_users: int, num_entities: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, dim))
    sequences = {
        u: UserEntitySequence(u, rng.integers(0, num_entities, size=5).tolist())
        for u in range(num_users)
        if u % 7  # leave some users uncovered
    }
    return embeddings, sequences, PreferenceStore(embeddings).build(sequences, num_users)


@pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/smaps")
def test_retired_mapped_generation_is_not_resident_and_rolls_back(tmp_path):
    num_users, num_entities, dim, k = 12_000, 40, 32, 20  # ~3 MB user_matrix
    entity_ids = [3, 7, 11]
    runtime = ServingRuntime()
    generations = {}
    for version in (1, 2):
        embeddings, sequences, built = build_store(num_users, num_entities, dim, version)
        directory = built.save_memmap(tmp_path / f"preferences-{version}")
        generations[version] = (embeddings, sequences, directory / "user_matrix.npy")
        runtime.activate_preferences(PreferenceStore.load_memmap(directory), version)
        runtime.target(entity_ids, k=k)

    def rss(version):
        sizes = mapping_rss_kb(generations[version][2])
        assert len(sizes) == 1  # mapped exactly once, retired or not
        return sizes[0]

    assert rss(1) == 0  # retired by the swap: mapped, not resident
    assert rss(2) > 0  # the active generation was read, and is resident

    assert runtime.rollback("preferences")["preference_version"] == 1
    assert rss(2) == 0  # the generation rolled away from is released in turn
    embeddings, sequences, _ = generations[1]
    scores = reference_scores(embeddings, sequences, num_users, entity_ids)
    got = runtime.target(entity_ids, k=k).users
    assert_matches_reference(got, scores, k, sequences)
    assert rss(1) > 0  # the rollback faulted its pages back in


def publish_generations(tmp_path, versions=(1, 2)):
    """Mapped generations of ``build_store`` (~3 MB ``user_matrix`` each):
    ``{version: (embeddings, sequences, store, user_matrix path)}``."""
    generations = {}
    for version in versions:
        embeddings, sequences, built = build_store(12_000, 40, 32, version)
        directory = built.save_memmap(tmp_path / f"preferences-{version}")
        generations[version] = (
            embeddings, sequences, PreferenceStore.load_memmap(directory),
            directory / "user_matrix.npy",
        )
    return generations


@pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/smaps")
def test_the_activation_check_leaves_the_incoming_generation_unread(tmp_path):
    generations = publish_generations(tmp_path)
    runtime = ServingRuntime()
    entity_ids, k = [3, 7, 11], 20
    runtime.activate_preferences(generations[1][2], 1)
    runtime.target(entity_ids, k=k)
    runtime.activate_preferences(generations[2][2], 2)  # checked against v1
    assert runtime.swap_events()[-1]["new_version"] == 2
    assert runtime.drift_summary()["preferences"]["new_version"] == 2
    assert mapping_rss_kb(generations[2][3]) == [0]

    embeddings, sequences, _, path = generations[2]
    scores = reference_scores(embeddings, sequences, 12_000, entity_ids)
    assert_matches_reference(runtime.target(entity_ids, k=k).users, scores, k, sequences)
    assert mapping_rss_kb(path)[0] > 0  # the first request reads it in


@pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/smaps")
def test_a_reader_across_the_swap_releases_the_retired_generation(tmp_path):
    """The request acquired generation 1 before the swap and scores it
    after: it faults the pages back in, and its exit gives them up."""
    generations = publish_generations(tmp_path)
    runtime = ServingRuntime()
    runtime.activate_preferences(generations[1][2], 1)
    store = generations[1][2]
    entered, swapped = threading.Event(), threading.Event()
    score = store.top_users_for_entities

    def held_across_the_swap(*args, **kwargs):
        entered.set()
        assert swapped.wait(30)
        return score(*args, **kwargs)

    store.top_users_for_entities = held_across_the_swap
    entity_ids, k, answers = [3, 7, 11], 20, []
    reader = threading.Thread(
        target=lambda: answers.append(runtime.target(entity_ids, k=k).users)
    )
    reader.start()
    try:
        assert entered.wait(30)
        runtime.activate_preferences(generations[2][2], 2)
    finally:
        swapped.set()
        reader.join(timeout=30)
    assert not reader.is_alive()

    embeddings, sequences, _, path = generations[1]
    scores = reference_scores(embeddings, sequences, 12_000, entity_ids)
    assert_matches_reference(answers[0], scores, k, sequences)
    assert mapping_rss_kb(path) == [0]


@pytest.mark.skipif(not SMAPS.exists(), reason="needs /proc/self/smaps")
def test_readers_racing_swaps_leave_only_the_active_generation_resident(tmp_path):
    """More request threads than cores against swaps and rollbacks, with
    the interpreter switching threads as often as it can: a lost update of
    a reader count would leave a retired generation resident (or an active
    one released)."""
    generations = publish_generations(tmp_path, versions=(1, 2, 3))
    runtime = ServingRuntime()
    runtime.activate_preferences(generations[1][2], 1)
    stop, errors = threading.Event(), []

    def request() -> None:
        while not stop.is_set():
            try:
                assert len(runtime.target([3, 7, 11], k=20).users) == 20
            except Exception as error:  # reported below, not lost in the thread
                errors.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=request) for _ in range(8)]
    try:
        for reader in readers:
            reader.start()
        for version in (2, 3, 2, 3, 1, 2, 3):
            runtime.activate_preferences(generations[version][2], version)
            runtime.rollback("preferences")
            runtime.rollback("preferences")
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []
    assert runtime.versions()["preference_version"] == 3
    for version, (_, _, store, path) in generations.items():
        assert store._readers == 0
        if version != 3:
            assert mapping_rss_kb(path) == [0], version


def test_memory_store_is_unaffected_by_release_pages():
    embeddings, sequences, store = build_store(300, 30, 8, seed=5)
    before = store.top_users_for_entities([1, 2], k=10)
    matrix = store.user_matrix.copy()
    store.release_pages()
    assert store.storage == "memory"
    assert np.array_equal(store.user_matrix, matrix)
    assert store.top_users_for_entities([1, 2], k=10) == before
