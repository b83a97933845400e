"""Degraded-mode serving: breaker trips, last-good fallback, recovery,
rollback, deadline shedding, and the API's machine-readable error codes."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    NotFittedError,
)
from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.online.api import EGLService, ExpandRequest, TargetRequest, error_code
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.resilience import CLOSED, HALF_OPEN, OPEN, Deadline, FaultInjector
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
def rig(world):
    """A served system on a ManualClock with a shared fault injector."""
    obs = Observability(clock=ManualClock(start=5_000.0))
    faults = FaultInjector(seed=0, clock=obs.clock)
    system = EGLSystem(world, obs=obs, faults=faults)
    system.runtime.activate_graph(build_reasoner(world, system), 1, tag="week-0")
    system.runtime.activate_preferences(build_preferences(world, seed=1), 1)
    return system, faults, obs.clock


class TestReadBreaker:
    def trip(self, system, faults):
        """Establish a last-good generation, then fail the active one."""
        system.target_users([0, 1], k=5)  # success: v1 becomes last-good
        system.runtime.activate_preferences(build_preferences(system.world, seed=2), 2)
        faults.configure("preferences.read", error_rate=1.0)
        for _ in range(5):  # failure_threshold of the read breaker
            result = system.target_users([0, 1], k=5)
            assert len(result.users) == 5  # served from last-good every time

    def test_trip_serves_last_good_and_reports_degraded(self, rig):
        system, faults, _ = rig
        self.trip(system, faults)
        breaker = system.runtime.read_breaker
        assert breaker.state == OPEN

        calls_before = faults.calls("preferences.read")
        result = system.target_users([0, 1], k=5)
        assert len(result.users) == 5
        # Open means the active generation is not even attempted.
        assert faults.calls("preferences.read") == calls_before

        health = system.runtime.health()
        assert health["degraded"] is True
        assert any("preference_read" in r for r in health["degraded_reasons"])
        assert health["breakers"]["preference_read"]["state"] == OPEN
        metrics = system.obs.metrics
        assert metrics.get_value("serving_degraded") == 1.0
        assert metrics.get_value("serving_degraded_serves_total") >= 6

    def test_expand_keeps_serving_while_reads_are_degraded(self, rig, world):
        system, faults, _ = rig
        self.trip(system, faults)
        view = system.expand([world.entities[0].name], depth=2)
        assert view is not None

    def test_half_open_probe_recloses_under_manual_clock(self, rig):
        system, faults, clock = rig
        self.trip(system, faults)
        faults.clear("preferences.read")  # the dependency healed

        clock.advance(29.0)
        assert system.runtime.read_breaker.state == OPEN
        clock.advance(1.0)  # recovery_timeout of the read breaker
        assert system.runtime.read_breaker.state == HALF_OPEN

        result = system.target_users([0, 1], k=5)  # the trial call
        assert len(result.users) == 5
        assert system.runtime.read_breaker.state == CLOSED
        health = system.runtime.health()
        assert health["degraded"] is False
        assert system.obs.metrics.get_value("serving_degraded") == 0.0
        transitions = system.obs.metrics.get_value(
            "breaker_transitions_total", breaker="preference_read", to="closed"
        )
        assert transitions == 1

    def test_failed_probe_reopens(self, rig):
        system, faults, clock = rig
        self.trip(system, faults)
        clock.advance(30.0)  # half-open, but the dependency is still down
        result = system.target_users([0, 1], k=5)  # probe fails, falls back
        assert len(result.users) == 5
        assert system.runtime.read_breaker.state == OPEN

    def test_open_breaker_without_last_good_sheds(self, rig):
        system, faults, _ = rig
        # No successful scoring call ever happened: no last-good exists.
        faults.configure("preferences.read", error_rate=1.0)
        for _ in range(5):
            with pytest.raises(Exception):
                system.target_users([0], k=3)
        with pytest.raises(CircuitOpenError):
            system.target_users([0], k=3)
        assert (
            system.obs.metrics.get_value(
                "serving_shed_requests_total", endpoint="target", reason="circuit_open"
            )
            == 1
        )


class TestActivationBreaker:
    def test_trips_and_keeps_old_generation_serving(self, rig, world):
        system, faults, _ = rig
        faults.configure("runtime.activate", error_rate=1.0)
        for attempt in range(3):  # activation breaker threshold
            with pytest.raises(Exception):
                system.runtime.activate_graph(
                    build_reasoner(world, system), 2 + attempt
                )
        assert system.runtime.activation_breaker.state == OPEN

        with pytest.raises(CircuitOpenError):
            system.runtime.activate_graph(build_reasoner(world, system), 9)
        # The generation that was serving before the failures still serves.
        assert system.runtime.versions()["graph_version"] == 1
        assert system.expand([world.entities[0].name], depth=1) is not None
        assert system.runtime.health()["degraded"] is True

    def test_recovers_half_open_to_closed(self, rig, world):
        system, faults, clock = rig
        faults.configure("runtime.activate", error_rate=1.0)
        for attempt in range(3):
            with pytest.raises(Exception):
                system.runtime.activate_graph(
                    build_reasoner(world, system), 2 + attempt
                )
        faults.clear("runtime.activate")
        clock.advance(60.0)  # activation breaker recovery_timeout
        system.runtime.activate_graph(build_reasoner(world, system), 9)
        assert system.runtime.activation_breaker.state == CLOSED
        assert system.runtime.versions()["graph_version"] == 9


class TestRollback:
    def test_graph_rollback_is_atomic_and_self_inverse(self, rig, world):
        system, _, _ = rig
        system.runtime.activate_graph(build_reasoner(world, system), 2, tag="week-1")
        assert system.runtime.versions()["graph_version"] == 2

        versions = system.rollback("graph")
        assert versions["graph_version"] == 1
        assert versions["graph_tag"] == "week-0"
        assert system.expand([world.entities[0].name], depth=1) is not None

        versions = system.rollback("graph")  # rolling back twice returns
        assert versions["graph_version"] == 2

    def test_preference_rollback(self, rig):
        system, _, _ = rig
        system.runtime.activate_preferences(build_preferences(system.world, 2), 2)
        assert system.rollback("preferences")["preference_version"] == 1
        result = system.target_users([0, 1], k=3)
        assert len(result.users) == 3

    def test_rollback_without_previous_raises(self, rig):
        system, _, _ = rig
        with pytest.raises(NotFittedError):
            system.rollback("graph")  # only one generation was ever active

    def test_rollback_event_and_counter(self, rig, world):
        system, _, _ = rig
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
        system, _, _ = rig
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
        system, _, _ = rig
        assert system.runtime.health()["rollback_available"] == {
            "graph": False,
            "preferences": False,
        }
        system.runtime.activate_graph(build_reasoner(world, system), 2)
        assert system.runtime.health()["rollback_available"]["graph"] is True


class TestDeadlines:
    def test_expired_deadline_sheds_expand(self, rig, world):
        system, _, clock = rig
        deadline = Deadline.after(0.5, clock=clock)
        clock.advance(0.75)
        with pytest.raises(DeadlineExceededError):
            system.expand([world.entities[0].name], deadline=deadline)
        assert (
            system.obs.metrics.get_value(
                "serving_shed_requests_total", endpoint="expand", reason="deadline"
            )
            == 1
        )

    def test_expired_deadline_sheds_target(self, rig):
        system, _, clock = rig
        deadline = Deadline.after(0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError):
            system.target_users([0], k=3, deadline=deadline)

    def test_live_deadline_lets_requests_through(self, rig, world):
        system, _, clock = rig
        deadline = Deadline.after(10.0, clock=clock)
        view, result = system.target_users_for_phrases(
            [world.entities[0].name], depth=1, k=3, deadline=deadline
        )
        assert len(result.users) == 3


class TestApiErrorCodes:
    def test_validation_maps_to_invalid_argument(self, rig, world):
        service = EGLService(rig[0])
        response = service.expand(
            ExpandRequest(phrases=[world.entities[0].name], depth=-1)
        )
        assert not response.ok
        assert response.code == "invalid_argument"
        assert response.to_dict()["code"] == "invalid_argument"

    def test_bad_timeout_is_invalid_argument(self, rig):
        service = EGLService(rig[0])
        response = service.target(TargetRequest(entity_ids=[0], timeout_ms=-5))
        assert response.code == "invalid_argument"

    def test_not_ready_before_artifacts(self, world):
        service = EGLService(EGLSystem(world))
        response = service.target(TargetRequest(entity_ids=[0]))
        assert not response.ok
        assert response.code == "not_ready"

    def test_deadline_exceeded_code(self, rig, world, monkeypatch):
        system, _, clock = rig
        service = EGLService(system)
        original = system.expand

        def slow_expand(*args, **kwargs):
            clock.advance(1.0)  # the work outlives the budget
            return original(*args, **kwargs)

        monkeypatch.setattr(system, "expand", slow_expand)
        response = service.expand(
            ExpandRequest(phrases=[world.entities[0].name], timeout_ms=500)
        )
        assert not response.ok
        assert response.code == "deadline_exceeded"

    def test_storage_error_then_circuit_open_codes(self, rig):
        system, faults, _ = rig
        service = EGLService(system)
        faults.configure("preferences.read", error_rate=1.0)
        codes = [
            service.target(TargetRequest(entity_ids=[0], k=3)).code for _ in range(6)
        ]
        assert codes[:5] == ["storage_error"] * 5  # no last-good to fall back to
        assert codes[5] == "circuit_open"

    def test_successful_response_has_no_code(self, rig, world):
        service = EGLService(rig[0])
        response = service.expand(ExpandRequest(phrases=[world.entities[0].name]))
        assert response.ok
        assert response.code is None

    def test_health_payload_surfaces_degraded(self, rig):
        system, faults, _ = rig
        service = EGLService(system)
        assert service.health().payload["degraded"] is False
        faults.configure("preferences.read", error_rate=1.0)
        for _ in range(5):
            service.target(TargetRequest(entity_ids=[0], k=3))
        payload = service.health().payload
        assert payload["degraded"] is True
        assert payload["degraded_reasons"]

    def test_error_code_mapping_is_most_specific_first(self):
        from repro.errors import CorruptArtifactError, StorageError

        assert error_code(CorruptArtifactError("x")) == "corrupt_artifact"
        assert error_code(StorageError("x")) == "storage_error"
