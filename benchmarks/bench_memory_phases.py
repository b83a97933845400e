"""The end-to-end server's resident set, phase by phase.

    cd benchmarks && PYTHONPATH=../src python -m pytest -x -q bench_memory_phases.py
    PYTHONPATH=src python benchmarks/bench_memory_phases.py   # one JSON line

The end-to-end benchmark's ``server_rss_mb`` is the server's ``VmHWM``: only
the tallest phase of the run counts, and the number does not say which one
that is. This runs the server's own bring-up (``build_stack`` from
``benchmarks/e2e/server.py``, imported, not changed) and then what
``refresh_under_load`` adds on top of it -- ``Stack.weeks()``, the week-1
weekly refresh and four daily preference refreshes over weeks 1-4, as the
operator cycles them -- while a thread reads ``VmRSS`` from
``/proc/self/status`` every 5 ms (with its split into ``RssAnon``, the heap
and other private memory, and ``RssFile``, mapped file pages such as the
published artifacts), and the ``VmRSS`` of every stage worker
alive at that instant (the children listed in
``/proc/self/task/*/children``): training and the daily build run there,
so the server's own peak alone would hide what the host holds. Each
phase reports the server's peak with its ``RssAnon`` / ``RssFile`` split at
that sample, the workers' peak and the peak of their sum at one instant.
Each sample goes to the phase whose
interval holds it: the bring-up phases come from ``build_stack``'s own
``setup_s`` marks (``world_and_events``, ``weekly_refresh``,
``daily_refresh``, ``listener``), the rest from marks this file sets between
its own steps. Nothing is patched.

The measurement runs in a fresh interpreter (this file as a program), so the
process holds what the server holds and not pytest's heap. It sends no
traffic: the e2e server's probes and request threads add a few MB that this
does not see, so compare phases with each other, not with ``server_rss_mb``.
A phase shorter than the poll period may hold no sample; its peak is then
``null``.

The test writes ``results/memory_phases.{json,txt}`` and appends each
phase's peak to ``results/history.jsonl`` (bench ``memory_phases``), with no
ceiling: the history comparator's band is the gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
POLL_S = 0.005
DAILIES = 4


def status_fields_mb(fields: tuple[str, ...], pid: str = "self") -> tuple[float, ...]:
    """``/proc/<pid>/status`` fields (``VmRSS``, ``RssAnon``, ...), in MiB,
    from one read."""
    found = {}
    for line in Path(f"/proc/{pid}/status").read_text(encoding="ascii").splitlines():
        name, _, value = line.partition(":")
        if name in fields:
            found[name] = int(value.split()[0]) / 1024  # the kernel reports KiB
    missing = [field for field in fields if field not in found]
    if missing:
        raise RuntimeError(f"no {', '.join(missing)} in /proc/{pid}/status")
    return tuple(found[field] for field in fields)


def status_mb(field: str, pid: str = "self") -> float:
    """One ``/proc/<pid>/status`` field (``VmRSS``, ``VmHWM``), in MiB."""
    return status_fields_mb((field,), pid)[0]


def workers_mb() -> float:
    """Summed ``VmRSS`` of this process's children (the stage workers)."""
    total = 0.0
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in children.read_text(encoding="ascii").split():
            try:
                total += status_mb("VmRSS", pid)
            except (OSError, RuntimeError):  # exited, or a zombie without VmRSS
                pass
    return total


class RssPoller:
    """Reads this process's ``VmRSS`` / ``RssAnon`` / ``RssFile`` and its
    workers' ``VmRSS`` every ``POLL_S`` seconds on its own thread."""

    def __init__(self) -> None:
        #: (perf_counter, (server, anon, file) MiB, workers MiB)
        self.samples: list[tuple[float, tuple[float, float, float], float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-poll", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            server = status_fields_mb(("VmRSS", "RssAnon", "RssFile"))
            self.samples.append((time.perf_counter(), server, workers_mb()))
            self._stop.wait(POLL_S)

    def __enter__(self) -> RssPoller:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def measure() -> dict:
    """Bring the stack up and run week 1 and the dailies; peak per phase."""
    sys.path.insert(0, str(HERE / "e2e"))
    import server  # benchmarks/e2e/server.py, which also puts src/ on the path

    with RssPoller() as poller, tempfile.TemporaryDirectory() as root:
        start = time.perf_counter()
        stack = server.build_stack(Path(root))
        marks = [("start", start)]
        for name, seconds in stack.setup_s.items():  # build_stack's marks, in order
            marks.append((name, marks[-1][1] + seconds))

        def mark(name: str) -> None:
            marks.append((name, time.perf_counter()))

        weeks = stack.weeks()
        mark("weeks")
        stack.weekly_refresh(weeks[0])
        mark("week_1")
        for day in range(DAILIES):
            stack.system.daily_preference_refresh(weeks[day % len(weeks)])
            mark(f"daily_{day + 1}")
        stack.frontend.stop()
    def peak(values: list[float]) -> float | None:
        return round(max(values), 2) if values else None

    phases = []
    for (_, begin), (name, end) in zip(marks, marks[1:]):
        held = [(server, workers) for t, server, workers in poller.samples if begin < t <= end]
        # The split of the server's peak: the sample it was read in.
        top = max(held, key=lambda sample: sample[0][0])[0] if held else None
        phases.append({
            "phase": name,
            "seconds": round(end - begin, 3),
            "samples": len(held),
            "peak_rss_mb": peak([server[0] for server, _ in held]),
            "peak_anon_mb": round(top[1], 2) if top else None,
            "peak_file_mb": round(top[2], 2) if top else None,
            "worker_peak_rss_mb": peak([workers for _, workers in held]),
            "total_peak_rss_mb": peak([server[0] + workers for server, workers in held]),
        })
    return {
        "phases": phases,
        "vmhwm_mb": round(status_mb("VmHWM"), 2),
        "poll_s": POLL_S,
        "weekly_digest": stack.weekly_report["artifact_digest"],
    }


def table(result: dict) -> str:
    lines = [
        "Resident set per phase (in-process poll of VmRSS every "
        f"{result['poll_s'] * 1000:.0f} ms; no traffic): the server's peak, "
        "its RssAnon / RssFile at that sample, its stage workers, and the "
        "peak of the two summed at one instant",
        f"{'phase':<18}{'seconds':>9}{'samples':>9}{'server MB':>11}{'anon MB':>9}"
        f"{'file MB':>9}{'workers MB':>12}{'sum MB':>9}",
    ]

    def mb(value) -> str:
        return "-" if value is None else f"{value:.2f}"

    for phase in result["phases"]:
        lines.append(
            f"{phase['phase']:<18}{phase['seconds']:>9.2f}{phase['samples']:>9}"
            f"{mb(phase['peak_rss_mb']):>11}{mb(phase['peak_anon_mb']):>9}"
            f"{mb(phase['peak_file_mb']):>9}{mb(phase['worker_peak_rss_mb']):>12}"
            f"{mb(phase['total_peak_rss_mb']):>9}"
        )
    lines.append(f"VmHWM at exit: {result['vmhwm_mb']:.2f} MB")
    return "\n".join(lines) + "\n"


def test_memory_phases():
    from bench_common import record_history, save_result

    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    save_result("memory_phases", result, table(result))
    peaks = {p["phase"]: p["peak_rss_mb"] for p in result["phases"] if p["peak_rss_mb"] is not None}
    for name in ("weekly_refresh", "week_1", "daily_1"):
        assert name in peaks, result  # the training phases last seconds
    assert max(peaks.values()) <= result["vmhwm_mb"] + 0.5, result
    metrics = {}
    for phase in result["phases"]:
        if phase["peak_rss_mb"] is not None:
            for key in (
                "peak_rss_mb", "peak_anon_mb", "peak_file_mb",
                "worker_peak_rss_mb", "total_peak_rss_mb",
            ):
                metrics[f"{phase['phase']}.{key}"] = phase[key]
    record_history(
        "memory_phases",
        metrics,
        directions=dict.fromkeys(metrics, "lower"),
        config={"poll_s": POLL_S, "dailies": DAILIES, "traffic": "none"},
    )


if __name__ == "__main__":
    print(json.dumps(measure()))
