"""Week 0 on two cores: the skip-gram fit in the stage worker.

The worker is a replacement of *where* the fit runs, not of *what* runs:
every test here compares it with the inline call or checks that a failed
worker is the stage's failure and leaves no process behind.
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.embeddings import SkipGramConfig, fit_cooccurrence
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig, SemanticEntityEncoder
from repro.errors import StageWorkerError
from repro.online import EGLSystem
from repro.online.system import graph_digest
from repro.resilience import CheckpointStore
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig, TRMPipeline
from repro.trmp import stage_worker
from repro.trmp.stage_worker import StageWorker, checked_embedding

SRC = Path(repro.__file__).resolve().parent
WORLD = dict(num_entities=60, num_users=50, seed=9)
BEHAVIOR = dict(num_days=10, seed=4)


def config(skipgram_epochs: int = 6) -> TRMPConfig:
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=skipgram_epochs, seed=2),
        # Enough epochs that the pretrain outlasts the worker's import + fit,
        # which test_only_week_zero_overlaps assumes (3 did before ISSUE 24).
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=6, seed=3)),
        alpc=ALPCConfig(epochs=12, seed=1),
        ensemble=EnsembleConfig(epochs=8, seed=0),
    )


def children() -> list[int]:
    """Pids whose parent is this process — zombies included, so an empty
    list means every child was both stopped and reaped."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited between the listing and the read
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(int(entry.name))
    return found


def no_worker(*args, **kwargs):
    raise AssertionError("a stage worker was started where none may be")


def refresh_twice(world, events, root) -> list:
    """Week 0, then week 1 with process creation forbidden."""
    system = EGLSystem(world, config(), artifact_root=root)
    reports = [system.weekly_refresh(events)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stage_worker.subprocess, "Popen", no_worker)
        reports.append(system.weekly_refresh(events))
    digests = [dict(run.stage_digests) for run in system.pipeline.weekly_runs]
    return [reports, digests]


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig(**WORLD))


@pytest.fixture(scope="module")
def events(world):
    return BehaviorLogGenerator(world, BehaviorConfig(**BEHAVIOR)).generate()


@pytest.fixture(scope="module")
def overlapped(world, events, tmp_path_factory):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: nothing overlaps here")
    return refresh_twice(world, events, tmp_path_factory.mktemp("overlapped"))


@pytest.fixture(scope="module")
def inline(world, events, tmp_path_factory):
    """The same two refreshes as seen from a one-CPU machine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(stage_worker.subprocess, "Popen", no_worker)
        return refresh_twice(world, events, tmp_path_factory.mktemp("inline"))


# ----------------------------------------------------------------------
# (a) same bits, wherever the fit runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "skipgram",
    [SkipGramConfig(epochs=3), SkipGramConfig(dim=16, window=2, negatives=3, epochs=2, seed=5)],
    ids=["default", "small"],
)
def test_worker_fit_equals_inline_fit_byte_for_byte(skipgram):
    rng = np.random.default_rng(0)
    sequences = [rng.integers(0, 40, size=9).tolist() for _ in range(200)]
    with StageWorker() as worker:
        worker.send(40, skipgram, sequences)
        matrix, busy_seconds = worker.receive()
    assert matrix.tobytes() == fit_cooccurrence(40, skipgram, sequences).tobytes()
    assert matrix.flags.writeable and busy_seconds > 0
    assert children() == []


def test_refresh_digests_equal_with_and_without_the_worker(overlapped, inline):
    (with_worker, worker_digests), (without, inline_digests) = overlapped, inline
    assert worker_digests == inline_digests
    assert set(worker_digests[0]) >= {"cooccurrence", "candidates", "ranked"}
    for a, b in zip(with_worker, without):
        assert a.artifact_digest == b.artifact_digest
    assert with_worker[0].overlapped_seconds and not without[0].overlapped_seconds


# ----------------------------------------------------------------------
# (e) what the seconds mean under overlap
# ----------------------------------------------------------------------
def test_stage_seconds_still_sum_to_the_refresh(overlapped):
    for report in overlapped[0]:
        stages = sum(report.stage_seconds.values())
        assert 0 <= report.elapsed_seconds - stages < 0.05


def test_only_week_zero_overlaps(overlapped):
    week0, week1 = overlapped[0]
    assert list(week0.overlapped_seconds) == ["cooccurrence_embedding"]
    assert week0.overlapped_seconds["cooccurrence_embedding"] > 0
    # The parent only waited for what was left of the fit after its pretrain.
    assert (
        week0.stage_seconds["cooccurrence_embedding"]
        < week0.overlapped_seconds["cooccurrence_embedding"]
    )
    assert week1.overlapped_seconds == {}
    assert "semantic_pretrain" not in week1.stage_seconds


# ----------------------------------------------------------------------
# (d) one CPU: no process, same digests
# ----------------------------------------------------------------------
ONE_CPU_SCRIPT = """
import json, os, subprocess, sys, tempfile
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import test_stage_worker as t

def no_worker(*args, **kwargs):
    raise AssertionError("a stage worker was started on one CPU")

subprocess.Popen = no_worker
world = t.World(t.WorldConfig(**t.WORLD))
events = t.BehaviorLogGenerator(world, t.BehaviorConfig(**t.BEHAVIOR)).generate()
with tempfile.TemporaryDirectory() as root:
    system = t.EGLSystem(world, t.config(), artifact_root=root)
    report = system.weekly_refresh(events)
    print(json.dumps({
        "artifact_digest": report.artifact_digest,
        "overlapped_seconds": report.overlapped_seconds,
        "stage_digests": system.pipeline.weekly_runs[0].stage_digests,
    }))
"""


def test_one_cpu_starts_no_process_and_gives_the_same_digests(overlapped):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))
    done = subprocess.run(
        [sys.executable, "-c", ONE_CPU_SCRIPT, str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    (week0, _), (digests0, _) = overlapped
    assert seen["overlapped_seconds"] == {}
    assert seen["artifact_digest"] == week0.artifact_digest
    assert seen["stage_digests"] == digests0


# ----------------------------------------------------------------------
# (b) (c) failure is the stage's failure, and nothing is left behind
# ----------------------------------------------------------------------
def kill_worker_once_it_has_its_inputs(pipeline: TRMPipeline, killed: list[int]) -> None:
    deadline = time.monotonic() + 30
    while "ner_extraction" not in pipeline.stage_seconds and time.monotonic() < deadline:
        time.sleep(0.005)
    # On an idle machine this lands in the fit (it runs from ~0.5 s to
    # ~1.5 s after the start); nothing below depends on where in the
    # worker's life it lands.
    time.sleep(0.8)
    for pid in children():
        os.kill(pid, signal.SIGKILL)
        killed.append(pid)


def test_sigkill_of_the_worker_fails_the_stage_and_resume_completes(world, events, tmp_path):
    """A real kill, not an injected exception: no ``finally`` runs in the
    worker, the parent sees a dead pipe and a signal exit code."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no worker to kill")
    slow_fit = config(skipgram_epochs=30)

    reference = TRMPipeline(world, slow_fit, checkpoints=CheckpointStore(tmp_path / "reference"))
    expected = reference.run_week(events)

    checkpoints = CheckpointStore(tmp_path / "killed")
    pipeline = TRMPipeline(world, slow_fit, checkpoints=checkpoints)
    killed: list[int] = []
    killer = threading.Thread(
        target=kill_worker_once_it_has_its_inputs, args=(pipeline, killed)
    )
    killer.start()
    try:
        with pytest.raises(StageWorkerError, match="exited with code -9"):
            pipeline.run_week(events)
    finally:
        killer.join(timeout=60)
    assert not killer.is_alive() and len(killed) == 1
    assert children() == []
    assert checkpoints.completed_stages("weekly-0000") == []
    assert pipeline.weekly_runs == []
    # The failed stage still recorded its seconds (``_stage``'s finally).
    assert "cooccurrence_embedding" in pipeline.stage_seconds
    waits = pipeline.obs.metrics.histogram(
        "pipeline_stage_seconds", stage="cooccurrence_embedding"
    )
    assert waits.count == 1

    resumed = pipeline.run_week(events, resume=True)
    assert resumed.stage_digests == expected.stage_digests
    assert graph_digest(resumed.ranked_graph) == graph_digest(expected.ranked_graph)
    assert children() == []


def test_a_raising_pretrain_leaves_no_child(world, events, monkeypatch, tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no worker is started")
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    def failing_pretrain(self, extra_documents=None):
        raise RuntimeError("pretrain failed")

    monkeypatch.setattr(stage_worker.subprocess, "Popen", recording_popen)
    monkeypatch.setattr(SemanticEntityEncoder, "pretrain", failing_pretrain)
    pipeline = TRMPipeline(world, config(), checkpoints=CheckpointStore(tmp_path))
    with pytest.raises(RuntimeError, match="pretrain failed"):
        pipeline.run_week(events)
    assert len(started) == 1 and started[0].returncode is not None  # reaped
    assert children() == []


def test_an_exception_in_the_worker_carries_its_stderr():
    with StageWorker() as worker:
        # Not validated on this side: the worker's own ConfigError it is.
        worker.send(10, SkipGramConfig(dim=0), [[1, 2, 3]])
        with pytest.raises(StageWorkerError, match="(?s)code 1.*ConfigError"):
            worker.receive()
    assert children() == []


# ----------------------------------------------------------------------
# (f) the parent checks what comes back
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "reply",
    [
        (np.zeros((4, 3)), 0.1),  # wrong shape
        (np.full((5, 3), np.nan), 0.1),
        (np.full((5, 3), np.inf), 0.1),
        (np.zeros((5, 3), dtype=np.float32), 0.1),
        ([[0.0] * 3] * 5, 0.1),  # not an array
        np.zeros((5, 3)),  # not (matrix, seconds)
    ],
    ids=["shape", "nan", "inf", "float32", "list", "bare"],
)
def test_an_invalid_reply_is_rejected(reply):
    with pytest.raises(StageWorkerError):
        checked_embedding(reply, (5, 3))


def test_a_valid_reply_passes_unchanged():
    matrix = np.arange(15.0).reshape(5, 3)
    checked, seconds = checked_embedding((matrix, 1), (5, 3))
    assert checked.tobytes() == matrix.tobytes() and seconds == 1.0


# ----------------------------------------------------------------------
# (g) one worker entry point
# ----------------------------------------------------------------------
def imported_modules(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_one_worker_entry_point():
    """Processes are started in one place and in one way: no fork, no
    ``multiprocessing``, no executor pool, and the serving side never
    imports the worker."""
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        modules = imported_modules(path)
        roots = {name.split(".")[0] for name in modules}
        assert "multiprocessing" not in roots, relative
        assert "subprocess" not in roots or relative == "trmp/stage_worker.py", relative
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            assert name not in ("fork", "forkpty", "ProcessPoolExecutor"), relative
        if relative.startswith("serving/") or relative == "online/api.py":
            assert "repro.trmp.stage_worker" not in modules, relative
            assert not any(
                isinstance(node, ast.ImportFrom)
                and node.module == "repro.trmp"
                and any(alias.name == "stage_worker" for alias in node.names)
                for node in ast.walk(tree)
            ), relative
