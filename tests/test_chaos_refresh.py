"""Chaos suite for the checkpointed weekly refresh.

The acceptance bar: a refresh killed after *any* stage resumes to a final
artifact whose content digest is byte-identical to an uninterrupted run,
and a storage error is raised once, to the caller, with serving unchanged.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import CorruptArtifactError
from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem, target_users_for_phrases
from repro.online.system import graph_digest
from repro.resilience import FaultInjector, InjectedCrash, InjectedFault
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig

from helpers import child_pids

WEEKLY_STAGES = ["cooccurrence", "candidates", "ranked"]


def fast_config() -> TRMPConfig:
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=6, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=3, seed=3)),
        alpc=ALPCConfig(epochs=12, seed=1),
        ensemble=EnsembleConfig(epochs=8, seed=0),
    )


@pytest.fixture(scope="module")
def chaos_world():
    return World(WorldConfig(num_entities=60, num_users=50, seed=9))


@pytest.fixture(scope="module")
def chaos_events(chaos_world):
    return BehaviorLogGenerator(chaos_world, BehaviorConfig(num_days=10, seed=4)).generate()


def make_system(world, root, faults=None) -> EGLSystem:
    return EGLSystem(
        world, fast_config(), artifact_root=root,
        obs=Observability(clock=ManualClock()), faults=faults,
    )


@pytest.fixture(scope="module")
def baseline(chaos_world, chaos_events, tmp_path_factory):
    """One uninterrupted refresh: the digests every chaos run must match."""
    system = make_system(chaos_world, tmp_path_factory.mktemp("baseline"))
    report = system.weekly_refresh(chaos_events)
    return {
        "artifact_digest": report.artifact_digest,
        "stage_digests": dict(system.pipeline.weekly_runs[-1].stage_digests),
    }


def test_baseline_digest_is_the_recorded_one(baseline):
    """Seeded training is reproducible to the bit, and the value is written
    down: a change to the rounding of any training step (an operation
    reordered, a fused kernel) moves this digest and has to edit it here,
    deliberately, beside the quality numbers that justify it."""
    assert baseline["artifact_digest"] == (
        "9993cedb96b8c5591e89103e5a0febc9cd205f0911b2acb6b11c8525a57898e9"
    )


@pytest.mark.parametrize("kill_stage", WEEKLY_STAGES)
def test_kill_after_each_stage_resumes_byte_identical(
    kill_stage, chaos_world, chaos_events, baseline, tmp_path
):
    faults = FaultInjector()
    faults.fail_at(f"pipeline.{kill_stage}", 1, exception=InjectedCrash)
    crashed = make_system(chaos_world, tmp_path, faults=faults)
    with pytest.raises(InjectedCrash):
        crashed.weekly_refresh(chaos_events)

    # The kill seam fires after the stage commits, so everything up to and
    # including the killed stage survived on disk.
    completed = crashed.registry.checkpoints.completed_stages("weekly-0000")
    expected = WEEKLY_STAGES[: WEEKLY_STAGES.index(kill_stage) + 1]
    assert completed == expected

    # A fresh system over the same root models the restarted process.
    resumed = make_system(chaos_world, tmp_path)
    report = resumed.weekly_refresh(chaos_events, resume=True)
    assert report.resumed_stages == expected
    assert report.artifact_digest == baseline["artifact_digest"]
    assert (
        resumed.pipeline.weekly_runs[-1].stage_digests == baseline["stage_digests"]
    )


def test_resume_without_checkpoints_runs_from_scratch(
    chaos_world, chaos_events, baseline, tmp_path
):
    system = make_system(chaos_world, tmp_path)
    report = system.weekly_refresh(chaos_events, resume=True)
    assert report.resumed_stages == []
    assert report.artifact_digest == baseline["artifact_digest"]


def test_crashed_refresh_keeps_marketer_feedback_for_its_resume(
    chaos_world, chaos_events, tmp_path
):
    """Feedback is retired only once the week that trained on it is
    published: a refresh killed before that resumes, in the same process,
    to the digest of an uninterrupted refresh with the same feedback (not
    the no-feedback one). Surviving a restart needs a durable log."""
    faults = FaultInjector()
    faults.fail_at("pipeline.cooccurrence", 1, exception=InjectedCrash)
    system = make_system(chaos_world, tmp_path, faults=faults)
    system.record_choice(0, [1, 2, 3])
    with pytest.raises(InjectedCrash):
        system.weekly_refresh(chaos_events)
    assert len(system.feedback) == 3

    report = system.weekly_refresh(chaos_events, resume=True)
    assert report.artifact_digest == (
        "9f59d943a5dbd44440bded031869b917eb470d635cf3c54f03a605cae868b7d9"
    )
    assert len(system.feedback) == 0


def test_refused_swap_keeps_marketer_feedback(
    chaos_world, chaos_events, tmp_path, monkeypatch
):
    """A week whose graph never serves did not use the feedback: it stays
    for the next refresh instead of being retired at publish time. Here
    the activation check refuses week 1, whose generation opens empty."""
    system = make_system(chaos_world, tmp_path)
    system.weekly_refresh(chaos_events)
    system.record_choice(0, [1, 2, 3])
    empty = EntityGraph.from_edge_list(chaos_world.num_entities, [], [], [])
    monkeypatch.setattr(system.registry, "open_graph", lambda version=None: empty)

    report = system.weekly_refresh(chaos_events)
    assert report.swap_rejected and "empty_graph" in report.swap_rejected_reason
    assert system.runtime.versions()["graph_version"] == 1
    assert len(system.feedback) == 3


def test_good_daily_activates_after_three_corrupt_ones(
    chaos_world, chaos_events, tmp_path, monkeypatch
):
    """Three dailies whose user matrix is cut short before the open are each
    refused by it and quarantined, and v1 keeps serving as the registry's
    latest; the next daily is judged on its own files and activates."""
    system = make_system(chaos_world, tmp_path)
    system.weekly_refresh(chaos_events)
    system.daily_preference_refresh(chaos_events)
    runtime = system.runtime
    served = runtime.target(runtime.acquire(), [0, 1, 2], k=5).users
    open_preferences = system.registry.open_preferences
    cut = []

    def cut_then_open(version=None):
        matrix = tmp_path / f"preferences-{version:06d}" / "user_matrix.npy"
        os.truncate(matrix, matrix.stat().st_size - 8)
        cut.append(version)
        return open_preferences(version)

    monkeypatch.setattr(system.registry, "open_preferences", cut_then_open)
    for attempt in range(3):
        assert system.daily_preference_refresh(chaos_events) > 0
        assert system.runtime.versions()["preference_version"] == 1
        assert runtime.target(runtime.acquire(), [0, 1, 2], k=5).users == served
        assert system.registry.latest("preferences").version == 1
        refused = system.registry.quarantined[attempt]
        assert refused["kind"] == "preferences" and refused["version"] == cut[attempt]
        assert refused["reason"].startswith("artifact unreadable")
        assert "user_matrix" in refused["reason"]
        assert not (tmp_path / f"preferences-{cut[attempt]:06d}").exists()
    refused = system.registry.quarantined
    assert len(refused) == 3
    # Each refusal got its own version and keeps its own evidence.
    assert [entry["version"] for entry in refused] == cut == [2, 3, 4]
    assert len({entry["path"] for entry in refused}) == 3
    assert all(Path(entry["path"]).is_dir() for entry in refused)
    monkeypatch.undo()

    assert system.daily_preference_refresh(chaos_events) > 0
    assert system.runtime.versions()["preference_version"] == 5
    assert system.registry.latest("preferences").version == 5


def test_a_storage_fault_at_the_daily_open_reaches_the_caller(
    chaos_world, chaos_events, tmp_path
):
    """Only a quarantine is absorbed by the daily: a storage error at the
    open raises once, to the caller, and leaves serving and the quarantine
    list as they were; the next daily activates."""
    faults = FaultInjector()
    system = make_system(chaos_world, tmp_path, faults=faults)
    system.weekly_refresh(chaos_events)
    system.daily_preference_refresh(chaos_events)
    runtime = system.runtime
    served = runtime.target(runtime.acquire(), [0, 1, 2], k=5).users

    faults.fail_next("registry.read")
    with pytest.raises(InjectedFault):
        system.daily_preference_refresh(chaos_events)
    assert runtime.versions()["preference_version"] == 1
    assert runtime.target(runtime.acquire(), [0, 1, 2], k=5).users == served
    assert system.registry.quarantined == []

    assert system.daily_preference_refresh(chaos_events) > 0
    assert runtime.versions()["preference_version"] == 3


def test_ensemble_stage_checkpoint_and_resume(chaos_world, chaos_events, tmp_path):
    # Clean two-week run: the reference ensemble digest.
    clean = make_system(chaos_world, tmp_path / "clean")
    clean.weekly_refresh(chaos_events)
    clean.weekly_refresh(chaos_events)
    reference = clean.pipeline.weekly_runs[-1].stage_digests["ensemble"]

    # Killed run: week 1's crash lands right after the ensemble commits.
    faults = FaultInjector()
    faults.fail_at("pipeline.ensemble", 1, exception=InjectedCrash)
    crashed = make_system(chaos_world, tmp_path / "crashed", faults=faults)
    crashed.weekly_refresh(chaos_events)
    with pytest.raises(InjectedCrash):
        crashed.weekly_refresh(chaos_events)
    assert crashed.pipeline.ensemble is not None  # trained before the kill

    crashed.pipeline.ensemble = None
    ensemble = crashed.pipeline.train_ensemble(run_id="weekly-0001", resume=True)
    assert ensemble is crashed.pipeline.ensemble
    run = crashed.pipeline.weekly_runs[-1]
    assert "ensemble" in run.resumed_stages
    assert run.stage_digests["ensemble"] == reference


def test_report_carries_run_identity(chaos_world, chaos_events, tmp_path):
    system = make_system(chaos_world, tmp_path)
    report = system.weekly_refresh(chaos_events)
    assert report.run_id == "weekly-0000"
    assert report.artifact_digest == graph_digest(
        system.pipeline.weekly_runs[-1].ranked_graph
    )
    assert set(system.pipeline.weekly_runs[-1].stage_digests) == set(WEEKLY_STAGES)


def test_artifact_torn_between_publish_and_open_never_serves(
    chaos_world, chaos_events, tmp_path
):
    """One recovery rule, seen from the refresh: an artifact that lands
    torn is quarantined at open and the runtime keeps serving the
    last-good generation of that kind."""
    system = make_system(chaos_world, tmp_path)
    system.weekly_refresh(chaos_events)
    system.daily_preference_refresh(chaos_events)
    phrase = max(chaos_world.entities, key=lambda e: e.popularity).name
    view, result = target_users_for_phrases(
        system.runtime.acquire(), [phrase], depth=2, k=10
    )
    assert view.entities and result.users

    def torn(publish, array):
        def publish_then_tear(artifact, **kwargs):
            record = publish(artifact, **kwargs)
            path = Path(record.path) / array
            path.write_bytes(path.read_bytes()[:-7])
            return record

        return publish_then_tear

    registry = system.registry
    registry.commit_preferences = torn(
        registry.commit_preferences, "user_matrix.npy"
    )
    system.daily_preference_refresh(chaos_events)  # absorbed: nothing to swap to
    registry.publish_graph = torn(registry.publish_graph, "neighbors.npy")
    with pytest.raises(CorruptArtifactError):
        system.weekly_refresh(chaos_events)

    versions = system.runtime.versions()
    assert (versions["graph_version"], versions["preference_version"]) == (1, 1)
    assert registry.latest("graph").version == registry.latest("preferences").version == 1
    assert [(q["kind"], q["version"]) for q in registry.quarantined] == [
        ("preferences", 2), ("graph", 2),
    ]
    again_view, again = target_users_for_phrases(
        system.runtime.acquire(), [phrase], depth=2, k=10
    )
    assert again_view.entities == view.entities and again.users == result.users


def test_crash_between_graph_publish_and_freeze_checkpoint_publishes_once(
    chaos_world, chaos_events, baseline, tmp_path
):
    """The 4th checkpoint write is the ``artifact_freeze`` put: the graph
    generation is already registered when the crash lands, so the resume
    reuses it instead of publishing a duplicate of the same week."""
    faults = FaultInjector()
    faults.fail_at("checkpoint.write", 4, exception=InjectedCrash)
    crashed = make_system(chaos_world, tmp_path, faults=faults)
    with pytest.raises(InjectedCrash):
        crashed.weekly_refresh(chaos_events)
    assert [r.tag for r in crashed.registry.records("graph")] == ["week-0"]

    resumed = make_system(chaos_world, tmp_path)
    report = resumed.weekly_refresh(chaos_events, resume=True)
    assert [r.tag for r in resumed.registry.records("graph")] == ["week-0"]
    assert report.graph_version == 1
    assert report.artifact_digest == baseline["artifact_digest"]


def test_weekly_refresh_releases_the_heap_on_success_and_on_crash(
    chaos_world, chaos_events, tmp_path
):
    """Training's heap lives in the stage workers, and a refresh that
    raises or returns has killed and reaped every one of them: none of
    that heap stays resident, in this process or in another."""
    faults = FaultInjector()
    faults.fail_at("pipeline.ranked", 1, exception=InjectedCrash)
    crashed = make_system(chaos_world, tmp_path, faults=faults)
    with pytest.raises(InjectedCrash):
        crashed.weekly_refresh(chaos_events)
    assert child_pids() == []

    make_system(chaos_world, tmp_path).weekly_refresh(chaos_events, resume=True)
    assert child_pids() == []


def test_daily_refresh_releases_the_heap_on_success_and_on_crash(
    chaos_world, chaos_events, tmp_path, monkeypatch
):
    """The daily build's heap is its worker's: gone when the refresh
    returns, and when it raises after the worker wrote the generation."""
    system = make_system(chaos_world, tmp_path)
    system.weekly_refresh(chaos_events)
    assert system.daily_preference_refresh(chaos_events) > 0
    assert child_pids() == []

    def crash(slot):
        raise InjectedCrash("killed inside registry.commit_preferences")

    monkeypatch.setattr(system.registry, "commit_preferences", crash)
    with pytest.raises(InjectedCrash):
        system.daily_preference_refresh(chaos_events)
    assert child_pids() == []
    assert system.runtime.versions()["preference_version"] == 1
