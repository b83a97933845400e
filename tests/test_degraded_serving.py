"""Serving under faults, with no degraded mode: a corrupt incoming
generation is refused while the old one serves, rollback, deadline
shedding, and the API's machine-readable error codes."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    CorruptArtifactError,
    DeadlineExceededError,
    NotFittedError,
    StorageError,
    VocabularyError,
)
from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.online import target_users_for_phrases
from repro.online.api import EGLService, error_code
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.resilience import Deadline
from repro.serving import ArtifactRegistry, ServingRuntime
from repro.text.sequence_extractor import UserEntitySequence


def build_preferences(world, seed: int) -> PreferenceStore:
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(30)
    }
    return PreferenceStore(embeddings).build(sequences, world.num_users)


def build_reasoner(world, system) -> GraphReasoner:
    graph = EntityGraph.from_edge_list(
        world.num_entities, [(0, 1), (1, 2), (2, 3)], [0.9, 0.8, 0.7], [0, 0, 0]
    )
    return GraphReasoner(graph, system.pipeline.entity_dict)


@pytest.fixture()
def rig(world, tmp_path):
    """A served system on a ManualClock."""
    obs = Observability(clock=ManualClock(start=5_000.0))
    system = EGLSystem(world, artifact_root=tmp_path, obs=obs)
    system.runtime.activate_graph(build_reasoner(world, system), 1, tag="week-0")
    system.runtime.activate_preferences(build_preferences(world, seed=1), 1)
    return system, obs.clock


class TestActivationFaults:
    def test_good_generation_after_three_corrupt_ones(self, world, tmp_path):
        """Each incoming generation is judged on its own files: three whose
        user matrix ends early are refused by the open (and quarantined)
        while v1 keeps answering, and the good one after them activates."""
        registry = ArtifactRegistry(root=tmp_path)
        runtime = ServingRuntime()

        def published(seed):
            return registry.publish_preferences(build_preferences(world, seed)).version

        version = published(1)
        runtime.activate_preferences(registry.open_preferences(version), version)
        served = runtime.target(runtime.acquire(), [0, 1], k=5).users
        for seed in (2, 3, 4):
            version = published(seed)
            matrix = tmp_path / f"preferences-{version:06d}" / "user_matrix.npy"
            os.truncate(matrix, matrix.stat().st_size - 8)
            with pytest.raises(CorruptArtifactError, match="user_matrix"):
                registry.open_preferences(version)
            assert runtime.versions()["preference_version"] == 1
            assert runtime.target(runtime.acquire(), [0, 1], k=5).users == served
        assert [entry["version"] for entry in registry.quarantined] == [2, 3, 4]

        version = published(5)
        runtime.activate_preferences(registry.open_preferences(version), version)
        assert runtime.versions()["preference_version"] == 5
        assert runtime.target(runtime.acquire(), [0, 1], k=5).users != served


class TestRollback:
    def test_graph_rollback_is_atomic_and_self_inverse(self, rig, world):
        system, _ = rig
        system.runtime.activate_graph(build_reasoner(world, system), 2, tag="week-1")
        assert system.runtime.versions()["graph_version"] == 2

        versions = system.rollback("graph")
        assert versions["graph_version"] == 1
        assert versions["graph_tag"] == "week-0"
        runtime = system.runtime
        assert runtime.expand(runtime.acquire(), [world.entities[0].name], depth=1) is not None

        versions = system.rollback("graph")  # rolling back twice returns
        assert versions["graph_version"] == 2

    def test_preference_rollback(self, rig):
        system, _ = rig
        system.runtime.activate_preferences(build_preferences(system.world, 2), 2)
        assert system.rollback("preferences")["preference_version"] == 1
        result = system.runtime.target(system.runtime.acquire(), [0, 1], k=3)
        assert len(result.users) == 3

    def test_rollback_without_previous_raises(self, rig):
        system, _ = rig
        with pytest.raises(NotFittedError):
            system.rollback("graph")  # only one generation was ever active

    def test_rollback_event_and_counter(self, rig, world):
        system, _ = rig
        system.runtime.activate_graph(build_reasoner(world, system), 2)
        system.rollback("graph")
        event = system.runtime.swap_events()[-1]
        assert event["rollback"] is True
        assert (event["old_version"], event["new_version"]) == (2, 1)
        assert (
            system.obs.metrics.get_value("serving_rollbacks_total", kind="graph") == 1
        )

    def test_unknown_kind_is_a_caller_error(self, rig, world):
        """A misspelt kind is ``invalid_argument``, not a retryable
        ``not_ready``; it is refused without waiting for the swap lock and
        without moving the active generation, the event log or a counter."""
        system, _ = rig
        runtime = system.runtime
        runtime.activate_graph(build_reasoner(world, system), 2)
        active, events = runtime.acquire(), runtime.swap_events()
        raised = []

        def call():
            try:
                runtime.rollback("graphs")
            except Exception as error:
                raised.append(error)

        worker = threading.Thread(target=call, daemon=True)
        with runtime._swap_lock:  # a swap in progress
            worker.start()
            worker.join(timeout=5.0)
            refused_while_locked = not worker.is_alive()
        worker.join()
        assert refused_while_locked
        assert [type(error) for error in raised] == [ConfigError]
        assert error_code(raised[0]) == "invalid_argument"
        assert runtime.acquire() is active
        assert runtime.swap_events() == events
        for kind in ("graph", "preferences"):
            assert (
                system.obs.metrics.get_value("serving_rollbacks_total", kind=kind) == 0
            )

    def test_health_reports_rollback_availability(self, rig, world):
        system, _ = rig
        assert system.runtime.health()["rollback_available"] == {
            "graph": False,
            "preferences": False,
        }
        system.runtime.activate_graph(build_reasoner(world, system), 2)
        assert system.runtime.health()["rollback_available"]["graph"] is True


class TestDeadlines:
    def test_expired_deadline_sheds_expand(self, rig, world):
        system, clock = rig
        deadline = Deadline.after(0.5, clock=clock)
        clock.advance(0.75)
        with pytest.raises(DeadlineExceededError, match="before expand"):
            system.runtime.expand(
                system.runtime.acquire(), [world.entities[0].name], deadline=deadline
            )

    def test_expired_deadline_sheds_target(self, rig):
        system, clock = rig
        deadline = Deadline.after(0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError):
            system.runtime.target(system.runtime.acquire(), [0], k=3, deadline=deadline)

    def test_live_deadline_lets_requests_through(self, rig, world):
        system, clock = rig
        deadline = Deadline.after(10.0, clock=clock)
        view, result = target_users_for_phrases(
            system.runtime.acquire(), [world.entities[0].name], depth=1, k=3,
            deadline=deadline,
        )
        assert len(result.users) == 3


class TestApiErrorCodes:
    def test_validation_maps_to_invalid_argument(self, rig, world):
        service = EGLService(rig[0])
        response = service.expand({"phrases": [world.entities[0].name], "depth": -1})
        assert not response.ok
        assert response.code == "invalid_argument"
        assert response.to_dict()["code"] == "invalid_argument"

    def test_bad_timeout_is_invalid_argument(self, rig):
        service = EGLService(rig[0])
        response = service.target({"entity_ids": [0], "timeout_ms": -5})
        assert response.code == "invalid_argument"

    def test_not_ready_before_artifacts(self, world, tmp_path):
        service = EGLService(EGLSystem(world, artifact_root=tmp_path))
        response = service.target({"entity_ids": [0]})
        assert not response.ok
        assert response.code == "not_ready"

    def test_deadline_exceeded_code(self, rig, world, monkeypatch):
        system, clock = rig
        service = EGLService(system)
        original = system.runtime.expand

        def slow_expand(*args, **kwargs):
            clock.advance(1.0)  # the work outlives the budget
            return original(*args, **kwargs)

        monkeypatch.setattr(system.runtime, "expand", slow_expand)
        response = service.expand({"phrases": [world.entities[0].name], "timeout_ms": 500})
        assert not response.ok
        assert response.code == "deadline_exceeded"

    def test_every_storage_error_answers_storage_error(self, rig, monkeypatch):
        """A backend fault is answered with its own code each time and
        decides nothing for later requests: once it stops, the next one
        is served."""
        system, _ = rig
        service = EGLService(system)

        def broken(*args, **kwargs):
            raise StorageError("disk on fire")

        monkeypatch.setattr(system.runtime.acquire().targeting, "target", broken)
        codes = [
            service.target({"entity_ids": [0], "k": 3}).code for _ in range(6)
        ]
        assert codes == ["storage_error"] * 6
        monkeypatch.undo()
        assert service.target({"entity_ids": [0], "k": 3}).ok

    def test_unresolved_phrases_are_invalid_argument(self, rig):
        """A phrase list that resolves to no entity is the caller's
        mistake, not a server fault."""
        assert error_code(VocabularyError("x")) == "invalid_argument"
        response = EGLService(rig[0]).expand({"phrases": ["no such entity"]})
        assert (response.ok, response.code) == (False, "invalid_argument")

    def test_successful_response_has_no_code(self, rig, world):
        service = EGLService(rig[0])
        response = service.expand({"phrases": [world.entities[0].name]})
        assert response.ok
        assert response.code is None

    def test_error_code_mapping_is_most_specific_first(self):
        from repro.errors import CorruptArtifactError, StorageError

        assert error_code(CorruptArtifactError("x")) == "corrupt_artifact"
        assert error_code(StorageError("x")) == "storage_error"
