"""Every stage that trains or builds runs in the stage worker.

The worker is a replacement of *where* a stage runs, not of *what* runs:
every test here compares it with the same stage functions called in this
process, checks that a failed or killed worker is the stage's failure and
leaves no process behind, or checks that the serving process trains
nothing.
"""

from __future__ import annotations

import ast
import fcntl
import json
import os
import pickle
import select
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
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import StageWorkerError
from repro.online import EGLSystem
from repro.online.system import graph_digest
from repro.preference.store import PreferenceStore
from repro.resilience import CheckpointStore
from repro.tensor import Tensor
from repro.text import EntityDict, EntitySequenceExtractor
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig, TRMPipeline
from repro.trmp import stage_worker
from repro.trmp.stage_worker import StageWorker, checked_matrix, checked_reply
from repro.trmp.stages import cooccurrence_stage

from helpers import child_pids
from reference_model import assert_matches_reference, reference_scores

SRC = Path(repro.__file__).resolve().parent
WORLD = dict(num_entities=60, num_users=50, seed=9)
BEHAVIOR = dict(num_days=10, seed=4)


def config(skipgram_epochs: int = 6, mlm: MLMConfig | None = None) -> TRMPConfig:
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=skipgram_epochs, seed=2),
        # Enough epochs that the pretrain outlasts the NER + skip-gram
        # worker, which test_only_week_zero_overlaps assumes.
        semantic=SemanticEncoderConfig(mlm=mlm or MLMConfig(epochs=6, seed=3)),
        alpc=ALPCConfig(epochs=12, seed=1),
        ensemble=EnsembleConfig(epochs=8, seed=0),
    )


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))


class InlineWorker:
    """A :class:`StageWorker` stand-in that calls each stage in this
    process, with no pickling on the way: the old in-process path."""

    def __init__(self) -> None:
        self._reply = None

    def __enter__(self) -> "InlineWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, function, *arguments) -> None:
        self._reply = function(*arguments)

    def result(self):
        return checked_reply(self._reply)

    def run(self, function, *arguments):
        self.submit(function, *arguments)
        return self.result()


def no_worker(*args, **kwargs):
    raise AssertionError("a stage worker was started where none may be")


def refresh_cycle(world, events, root) -> dict:
    """Week 0, a daily, week 1, a daily: every digest they leave."""
    system = EGLSystem(world, config(), artifact_root=root)
    reports = [system.weekly_refresh(events)]
    covered = [system.daily_preference_refresh(events)]
    reports.append(system.weekly_refresh(events))
    covered.append(system.daily_preference_refresh(events))
    assert child_pids() == []
    return {
        "reports": reports,
        "digests": {
            "artifacts": [report.artifact_digest for report in reports],
            "stages": [dict(run.stage_digests) for run in system.pipeline.weekly_runs],
            "graphs": [r.checksum for r in system.registry.records("graph")],
            "preferences": [r.checksum for r in system.registry.records("preferences")],
            "covered": covered,
        },
    }


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig(**WORLD))


@pytest.fixture(scope="module")
def events(world):
    return BehaviorLogGenerator(world, BehaviorConfig(**BEHAVIOR)).generate()


@pytest.fixture(scope="module")
def in_workers(world, events, tmp_path_factory):
    return refresh_cycle(world, events, tmp_path_factory.mktemp("workers"))


@pytest.fixture(scope="module")
def in_process(world, events, tmp_path_factory):
    """The same cycle with every stage called in this process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.trmp.pipeline.StageWorker", InlineWorker)
        patch.setattr("repro.online.system.StageWorker", InlineWorker)
        patch.setattr(stage_worker.subprocess, "Popen", no_worker)
        return refresh_cycle(world, events, tmp_path_factory.mktemp("in-process"))


# ----------------------------------------------------------------------
# (a) same bits, wherever a stage runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "skipgram",
    [SkipGramConfig(epochs=3), SkipGramConfig(dim=16, window=2, negatives=3, epochs=2, seed=5)],
    ids=["default", "small"],
)
def test_worker_fit_equals_inline_fit_byte_for_byte(skipgram, world, events):
    extractor = EntitySequenceExtractor(EntityDict.from_world(world))
    arguments = (extractor, events, world.num_entities, skipgram)
    with StageWorker() as worker:
        payload, seconds = worker.run(cooccurrence_stage, *arguments)
    inline, _ = cooccurrence_stage(*arguments)
    assert payload["e_co"].tobytes() == inline["e_co"].tobytes()
    assert payload["counts"].tobytes() == inline["counts"].tobytes()
    # The checkpoint digest pickles the payload: the unpickled arrays
    # must pickle like the ones made here (no private dtype objects).
    assert pickle.dumps(payload, 5) == pickle.dumps(inline, 5)
    assert payload["e_co"].flags.writeable and set(seconds) == {
        "ner_extraction", "cooccurrence_embedding"
    }
    assert children_gone()


def children_gone() -> bool:
    return child_pids() == []


def test_refresh_digests_equal_with_and_without_the_worker(in_workers, in_process):
    assert in_workers["digests"] == in_process["digests"]
    stages = in_workers["digests"]["stages"]
    assert set(stages[0]) == {"cooccurrence", "candidates", "ranked"}
    assert set(stages[1]) == {"cooccurrence", "candidates", "ranked", "ensemble"}
    assert len(in_workers["digests"]["preferences"]) == 2


def test_the_serving_process_trains_nothing(world, events, tmp_path, in_workers, monkeypatch):
    """Week 0, week 1 and two dailies with every trainer and the
    preference build made to raise in this process: they run elsewhere,
    and the digests are the unpatched run's."""

    def trained_here(*args, **kwargs):
        raise AssertionError("the serving process trained")

    monkeypatch.setattr(Tensor, "backward", trained_here)
    for target in (
        "repro.embeddings.mlm.train_mlm",
        "repro.embeddings.semantic.train_mlm",
        "repro.embeddings.skipgram.fit_cooccurrence",
        "repro.trmp.stages.fit_cooccurrence",
    ):
        monkeypatch.setattr(target, trained_here)
    monkeypatch.setattr(PreferenceStore, "build", trained_here)
    assert refresh_cycle(world, events, tmp_path)["digests"] == in_workers["digests"]


# ----------------------------------------------------------------------
# (e) what the seconds mean when stages overlap
# ----------------------------------------------------------------------
def test_stage_seconds_still_sum_to_the_refresh(in_workers):
    for report in in_workers["reports"]:
        stages = sum(report.stage_seconds.values())
        assert 0 <= report.elapsed_seconds - stages < 0.05


def test_only_week_zero_overlaps(in_workers):
    week0, week1 = in_workers["reports"]
    assert list(week0.overlapped_seconds) == ["cooccurrence_embedding"]
    assert week0.overlapped_seconds["cooccurrence_embedding"] > 0
    # The parent only waited for what was left of NER + the fit after
    # the pretrain.
    assert (
        week0.stage_seconds["cooccurrence_embedding"]
        < week0.overlapped_seconds["cooccurrence_embedding"]
    )
    assert week1.overlapped_seconds == {}
    assert "semantic_pretrain" not in week1.stage_seconds
    assert {"ner_extraction", "ensemble"} <= set(week1.stage_seconds)


# ----------------------------------------------------------------------
# (d) one CPU: the same digests
# ----------------------------------------------------------------------
ONE_CPU_SCRIPT = """
import json, os, sys, tempfile
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import test_stage_worker as t

world = t.World(t.WorldConfig(**t.WORLD))
events = t.BehaviorLogGenerator(world, t.BehaviorConfig(**t.BEHAVIOR)).generate()
with tempfile.TemporaryDirectory() as root:
    system = t.EGLSystem(world, t.config(), artifact_root=root)
    report = system.weekly_refresh(events)
    print(json.dumps({
        "artifact_digest": report.artifact_digest,
        "stage_digests": system.pipeline.weekly_runs[0].stage_digests,
    }))
"""


def test_one_cpu_gives_the_same_digests(in_workers):
    done = subprocess.run(
        [sys.executable, "-c", ONE_CPU_SCRIPT, str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=120, env=worker_env(),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["artifact_digest"] == in_workers["digests"]["artifacts"][0]
    assert seen["stage_digests"] == in_workers["digests"]["stages"][0]


# ----------------------------------------------------------------------
# (b) (c) failure is the stage's failure, and nothing is left behind
# ----------------------------------------------------------------------
def recording_popen(monkeypatch) -> list:
    """Record every worker process started from here on, in order."""
    started = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(stage_worker.subprocess, "Popen", record)
    return started


def kill_the_sequences_worker(started: list, killed: list[int]) -> None:
    deadline = time.monotonic() + 30
    while len(started) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    # Week 0 starts the model worker, then the NER + skip-gram one. On an
    # idle machine this lands in the fit; nothing below depends on where
    # in the worker's life it lands.
    time.sleep(0.8)
    if len(started) >= 2:
        os.kill(started[1].pid, signal.SIGKILL)
        killed.append(started[1].pid)


def test_sigkill_of_the_worker_fails_the_stage_and_resume_completes(
    world, events, tmp_path, monkeypatch
):
    """A real kill, not an injected exception: no ``finally`` runs in the
    worker, the parent sees a dead pipe and a signal exit code."""
    slow_fit = config(skipgram_epochs=30)

    reference = TRMPipeline(world, slow_fit, checkpoints=CheckpointStore(tmp_path / "reference"))
    expected = reference.run_week(events)

    started = recording_popen(monkeypatch)
    checkpoints = CheckpointStore(tmp_path / "killed")
    pipeline = TRMPipeline(world, slow_fit, checkpoints=checkpoints)
    killed: list[int] = []
    killer = threading.Thread(target=kill_the_sequences_worker, args=(started, killed))
    killer.start()
    try:
        with pytest.raises(StageWorkerError, match="exited with code -9"):
            pipeline.run_week(events)
    finally:
        killer.join(timeout=60)
    assert not killer.is_alive() and len(killed) == 1
    assert children_gone()
    assert checkpoints.completed_stages("weekly-0000") == []
    assert pipeline.weekly_runs == []
    # The failed stage still recorded its seconds.
    assert "cooccurrence_embedding" in pipeline.stage_seconds
    waits = pipeline.obs.metrics.histogram(
        "pipeline_stage_seconds", stage="cooccurrence_embedding"
    )
    assert waits.count == 1

    resumed = pipeline.run_week(events, resume=True)
    assert resumed.stage_digests == expected.stage_digests
    assert graph_digest(resumed.ranked_graph) == graph_digest(expected.ranked_graph)
    assert children_gone()


def test_a_raising_pretrain_leaves_no_child(world, events, monkeypatch, tmp_path):
    started = recording_popen(monkeypatch)
    # 30 is not divisible by 4 heads: the worker's MLM refuses the config.
    bad = config(mlm=MLMConfig(dim=30, num_heads=4, epochs=1, seed=3))
    pipeline = TRMPipeline(world, bad, checkpoints=CheckpointStore(tmp_path))
    with pytest.raises(StageWorkerError, match="(?s)code 1.*ConfigError"):
        pipeline.run_week(events)
    assert len(started) == 2
    assert all(process.returncode is not None for process in started)  # reaped
    assert children_gone()


def test_an_exception_in_the_worker_carries_its_stderr(world, events):
    extractor = EntitySequenceExtractor(EntityDict.from_world(world))
    with StageWorker() as worker:
        # Not validated on this side: the worker's own ConfigError it is.
        with pytest.raises(StageWorkerError, match="(?s)code 1.*ConfigError"):
            worker.run(
                cooccurrence_stage, extractor, events, world.num_entities, SkipGramConfig(dim=0)
            )
    assert children_gone()


def test_a_worker_whose_parent_dies_exits(tmp_path):
    """The parent is killed outright: the worker sees its stdin end at
    the next read and exits instead of living on as an orphan."""
    script = (
        "import sys, time\n"
        "from repro.trmp.stage_worker import StageWorker\n"
        "worker = StageWorker()\n"
        "print(worker.pid, flush=True)\n"
        "time.sleep(600)\n"
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=worker_env()
    )
    try:
        worker_pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 30
    while running(worker_pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(worker_pid)


def test_a_worker_starts_clean_under_warnings_as_errors(monkeypatch):
    """The worker imports its module and calls ``main`` (``python -m``
    would run the module a second time, and runpy warns), and it inherits
    no allocator setting: the serving process pins its own in-process."""
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    with StageWorker() as worker:
        environ = Path(f"/proc/{worker.pid}/environ").read_bytes().split(b"\0")
        assert worker.run(checked_reply, (7, {})) == (7, {})
    assert not [entry for entry in environ if entry.startswith(b"MALLOC_")]
    assert children_gone()


def running(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ----------------------------------------------------------------------
# The daily build: a kill mid-build, and the daily after it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def killed_daily(world, events, tmp_path_factory):
    """Week 0 and a daily, then a daily whose worker is killed while it
    writes the generation it built.

    The first array of the reserved directory is written to a temp file
    this test made a one-page FIFO: the worker's write of the embedding
    matrix (more than a page) blocks, after the extraction and the build,
    until someone reads. Nobody does; the worker is killed there.
    """
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ")
    root = tmp_path_factory.mktemp("killed-daily")
    system = EGLSystem(world, config(), artifact_root=root)
    system.weekly_refresh(events)
    system.daily_preference_refresh(events)
    entity_ids, k = [0, 5, 9], 10
    before = system.runtime.target(system.runtime.acquire(), entity_ids, k=k).users

    slot = root / "preferences-000002"
    slot.mkdir()
    fifo = slot / ".entity_embeddings.npy.tmp"
    os.mkfifo(fifo)
    # Ours is open for reading and writing, so the worker's open returns
    # at once and only its write waits.
    end = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    fcntl.fcntl(end, fcntl.F_SETPIPE_SZ, 4096)
    killed: list[int] = []

    def kill_once_it_writes() -> None:
        poller = select.poll()
        poller.register(end, select.POLLIN)
        if poller.poll(60_000):
            for pid in child_pids():
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)

    killer = threading.Thread(target=kill_once_it_writes)
    killer.start()
    try:
        with pytest.raises(StageWorkerError, match="exited with code -9") as error:
            system.daily_preference_refresh(events)
    finally:
        killer.join(timeout=90)
        os.close(end)
        fifo.unlink(missing_ok=True)  # the failed daily removed its slot
    return {
        "system": system,
        "error": error.value,
        "killed": killed,
        "slot_left": slot.exists(),
        "children": child_pids(),
        "versions": system.runtime.versions(),
        "records": [r.version for r in system.registry.records("preferences")],
        "before": before,
        "after": system.runtime.target(system.runtime.acquire(), entity_ids, k=k).users,
        "query": (entity_ids, k),
    }


def test_a_daily_worker_killed_mid_build_keeps_the_previous_generation(killed_daily):
    assert len(killed_daily["killed"]) == 1
    assert not killed_daily["slot_left"]
    assert killed_daily["children"] == []
    assert killed_daily["versions"]["preference_version"] == 1
    assert killed_daily["records"] == [1]
    assert killed_daily["after"] == killed_daily["before"]


def test_the_daily_after_a_killed_one_serves_reference_answers(killed_daily, world, events):
    system = killed_daily["system"]
    assert system.daily_preference_refresh(events) > 0
    assert children_gone()
    assert system.runtime.versions()["preference_version"] == 2
    assert [r.version for r in system.registry.records("preferences")] == [1, 2]
    entity_ids, k = killed_daily["query"]
    sequences = system.pipeline.extractor.extract_sequences(events)
    scores = reference_scores(
        system.pipeline.entity_embeddings(), sequences, world.num_users, entity_ids
    )
    got = system.runtime.target(system.runtime.acquire(), entity_ids, k=k).users
    assert_matches_reference(got, scores, k, sequences)


# ----------------------------------------------------------------------
# (f) the parent checks what comes back
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "reply",
    [
        (np.zeros((4, 3)), {"fit": 0.1}),  # wrong shape
        (np.full((5, 3), np.nan), {"fit": 0.1}),
        (np.full((5, 3), np.inf), {"fit": 0.1}),
        (np.zeros((5, 3), dtype=np.float32), {"fit": 0.1}),
        ([[0.0] * 3] * 5, {"fit": 0.1}),  # not an array
        np.zeros((5, 3)),  # not (payload, seconds)
    ],
    ids=["shape", "nan", "inf", "float32", "list", "bare"],
)
def test_an_invalid_reply_is_rejected(reply):
    with pytest.raises(StageWorkerError):
        payload, _ = checked_reply(reply)
        checked_matrix(payload, (5, 3), "E^Co")


def test_a_valid_reply_passes_unchanged():
    matrix = np.arange(15.0).reshape(5, 3)
    payload, seconds = checked_reply((matrix, {"fit": 1.0}))
    assert checked_matrix(payload, (5, 3), "E^Co") is matrix and seconds == {"fit": 1.0}


# ----------------------------------------------------------------------
# (g) one worker entry point (the layer order is tests/test_layers.py)
# ----------------------------------------------------------------------
def imported_modules(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
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

