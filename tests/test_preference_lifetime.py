"""A preference generation leaves memory when its last reference drops.

* the serving runtime retains each kind in its own slot: the graph rollback
  slot never pins a preference generation, so generation 1 is unreachable
  once two newer ones have been activated;
* the replaced generation is held whole by the rollback slot and rolls back
  with the same answers; one that has left both the active value and the
  slot is freed — its store is unreachable and, in a fresh process,
  ``RssAnon`` gives its arrays back;
* a request that acquired the outgoing generation before the swap is
  answered from it and keeps it alive until it leaves, and no longer;
* the daily refresh builds in a stage worker that is reaped before the
  published generation is opened.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
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

STATUS = Path("/proc/self/status")


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
    generation_1 = weakref.ref(system.runtime.acquire().preference_store)
    system.weekly_refresh(small_events)
    system.daily_preference_refresh(small_events)
    system.daily_preference_refresh(small_events)
    assert system.runtime.versions()["preference_version"] == 3

    gc.collect()
    assert generation_1() is None

    runtime = system.runtime
    graph_slot, preference_slot = runtime._previous["graph"], runtime._previous["preferences"]
    assert graph_slot.graph_version == 1 and graph_slot.reasoner is not None
    assert graph_slot.preference_store is None and graph_slot.targeting is None
    assert preference_slot.preference_version == 2
    assert preference_slot.reasoner is None and preference_slot.graph_version is None


def test_daily_refresh_builds_in_a_worker_reaped_before_the_open(
    small_world, small_events, tmp_path, monkeypatch
):
    """The daily builds nothing in this process, and its stage worker is
    reaped before the published generation is opened, so the open and the
    activation check never run beside the build."""
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


NUM_USERS, NUM_ENTITIES, DIM = 12_000, 40, 32  # ~3 MB user_matrix
ENTITY_IDS, K = [3, 7, 11], 20


def build_store(num_users: int, num_entities: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_entities, dim))
    sequences = {
        u: UserEntitySequence(u, rng.integers(0, num_entities, size=5).tolist())
        for u in range(num_users)
        if u % 7  # leave some users uncovered
    }
    return embeddings, sequences, PreferenceStore(embeddings).build(sequences, num_users)


def publish_generations(tmp_path, versions=(1, 2)) -> dict:
    """``{version: (embeddings, sequences, directory, built store's answer)}``
    for published generations of ``build_store``; nothing opened."""
    generations = {}
    for version in versions:
        embeddings, sequences, built = build_store(NUM_USERS, NUM_ENTITIES, DIM, version)
        directory = built.save_memmap(tmp_path / f"preferences-{version}")
        answer = built.top_users_for_entities(ENTITY_IDS, K)
        generations[version] = (embeddings, sequences, directory, answer)
    return generations


def answer(runtime: ServingRuntime) -> list:
    return runtime.target(runtime.acquire(), ENTITY_IDS, k=K).users


#: Run in a fresh interpreter: in a long-lived one, glibc may carve a
#: generation's arrays from free heap space that a free does not return.
RSS_PROBE = """
import gc, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_preference_lifetime import DIM, NUM_ENTITIES, NUM_USERS, build_store
from repro.preference.store import PreferenceStore
from repro.serving import ServingRuntime

def rss_anon_kb():
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1])

runtime = ServingRuntime()  # first, as in a server: it pins the mmap threshold
root = Path(tempfile.mkdtemp())
directories = [
    build_store(NUM_USERS, NUM_ENTITIES, DIM, seed)[2].save_memmap(root / str(seed))
    for seed in (1, 2, 3)
]
gc.collect()
for version, directory in enumerate(directories[:2], start=1):
    runtime.activate_preferences(PreferenceStore.load_memmap(directory), version)
incoming = PreferenceStore.load_memmap(directories[2])
matrix_kb = incoming.user_matrix.nbytes // 1024
before = rss_anon_kb()
runtime.activate_preferences(incoming, 3)
del incoming
gc.collect()
print(json.dumps({"freed_kb": before - rss_anon_kb(), "matrix_kb": matrix_kb}))
"""


def test_replaced_generation_is_freed_when_its_last_reference_drops(tmp_path):
    generations = publish_generations(tmp_path, versions=(1, 2, 3))
    runtime = ServingRuntime()
    opened = {}
    for version in (1, 2):
        store = PreferenceStore.load_memmap(generations[version][2])
        opened[version] = weakref.ref(store)
        runtime.activate_preferences(store, version)
        assert answer(runtime) == generations[version][3]
    del store

    # The rollback slot holds generation 1 whole: it answers as it did.
    assert runtime.rollback("preferences")["preference_version"] == 1
    embeddings, sequences, _, _ = generations[1]
    scores = reference_scores(embeddings, sequences, NUM_USERS, ENTITY_IDS)
    assert_matches_reference(answer(runtime), scores, K, sequences)
    assert runtime.rollback("preferences")["preference_version"] == 2
    gc.collect()
    assert opened[1]() is not None and opened[2]() is not None

    # Generation 3 replaces 2, which replaces 1 in the slot: 1 is freed.
    runtime.activate_preferences(PreferenceStore.load_memmap(generations[3][2]), 3)
    gc.collect()
    assert opened[1]() is None and opened[2]() is not None
    assert answer(runtime) == generations[3][3]


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_a_freed_generation_gives_its_memory_back():
    """The same swap in a fresh process: ``RssAnon`` falls by at least
    three quarters of the freed generation's ``user_matrix``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))
    done = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(Path(__file__).parent)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["freed_kb"] >= 0.75 * result["matrix_kb"], result


def hold_across_the_swap(store, entered, swapped) -> None:
    """Make ``store``'s next scoring call wait, once entered, for ``swapped``."""
    score = store.top_users_for_entities

    def held(*args, **kwargs):
        entered.set()
        assert swapped.wait(30)
        return score(*args, **kwargs)

    store.top_users_for_entities = held


def test_a_reader_across_the_swap_releases_the_retired_generation(tmp_path):
    """The request acquired generation 1 before two swaps pushed it out of
    both the active value and the rollback slot: it is still answered from
    generation 1, and its exit is what frees it."""
    generations = publish_generations(tmp_path, versions=(1, 2, 3))
    runtime = ServingRuntime()
    store = PreferenceStore.load_memmap(generations[1][2])
    generation_1 = weakref.ref(store)
    runtime.activate_preferences(store, 1)
    entered, swapped = threading.Event(), threading.Event()
    hold_across_the_swap(store, entered, swapped)
    del store
    answers = []
    reader = threading.Thread(target=lambda: answers.append(answer(runtime)))
    reader.start()
    try:
        assert entered.wait(30)
        for version in (2, 3):
            runtime.activate_preferences(
                PreferenceStore.load_memmap(generations[version][2]), version
            )
        gc.collect()
        assert generation_1() is not None  # the request in flight holds it
    finally:
        swapped.set()
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert answers == [generations[1][3]]
    del reader
    gc.collect()
    assert generation_1() is None


def test_readers_racing_swaps_keep_only_the_active_and_rollback_generations(tmp_path):
    """More request threads than cores against swaps and rollbacks, with
    the interpreter switching threads as often as it can: every answer is
    the one of the generation its request acquired, and afterwards only the
    active generation and the rollback slot's are alive."""
    generations = publish_generations(tmp_path, versions=(1, 2, 3))
    runtime = ServingRuntime()
    opened = []

    def activate(version: int) -> None:
        store = PreferenceStore.load_memmap(generations[version][2])
        opened.append(weakref.ref(store))
        runtime.activate_preferences(store, version)

    activate(1)
    stop, errors = threading.Event(), []

    def request() -> None:
        while not stop.is_set():
            try:
                active = runtime.acquire()
                got = runtime.target(active, ENTITY_IDS, k=K).users
                assert got == generations[active.preference_version][3]
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
            activate(version)
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
    del readers
    gc.collect()
    alive = [ref() for ref in opened if ref() is not None]
    assert len(alive) == 2
    assert {id(store) for store in alive} == {
        id(runtime.acquire().preference_store),
        id(runtime._previous["preferences"].preference_store),
    }
