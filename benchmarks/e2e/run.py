"""One socket-to-kernel benchmark: the command behind ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` launches the serving stack as a subprocess (``server.py``),
drives it over real sockets from this single process, checks every answer
and prints the end-to-end metrics. ``--trace 1`` runs the stack and one
client inside this process with span wrappers on every layer
(``trace.py``) and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Without ``--workload`` every workload runs both ways and the tables are
printed; ``--repeat N`` does that N times and compares the runs against the
bounds in ``BENCHMARK.json``; ``--smoke`` is a short version of the same for
``test_smoke.py``.

No gain is claimed here. The numbers this prints on the parent commit are
the baseline (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: {REPO_ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import server as server_module  # noqa: E402
from loadgen import Connection, Cursor, Segment, check_connection, run_segment  # noqa: E402
from trace import QUEUE_WAIT, Tracer, self_times  # noqa: E402  (this directory's trace.py)
from workloads import (  # noqa: E402
    CLIENTS,
    FIXED_SEED,
    HOT_SET_SIZE,
    WORKLOADS,
    Generator,
    Stream,
    endpoints_of,
    streams_digest,
)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "out"
WARMUP_S = 1.5
#: Share of ``--seconds`` given to phase A (one client, latency); the rest is
#: phase B (``CLIENTS`` clients, throughput). At ``run_seconds`` = 9 phase A
#: spans two operator periods and phase B one, so every run of
#: ``refresh_under_load`` sees the same number of refresh cycles per phase.
PHASE_A_SHARE = 2 / 3
#: The server gets this long to come up before the run is abandoned.
SETUP_TIMEOUT_S = 150.0


@dataclass
class Result:
    """What one run of one workload reports."""

    workload: str
    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures

    def last_line(self, section: str) -> str:
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            # A failure outside any request (a digest, a dry stream) still
            # counts as one failed operation.
            "failed": min(self.attempted, len(self.failures)),
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        })


class Server:
    """``server.py`` as a child process: spawn, talk over the pipe, stop."""

    def __init__(self) -> None:
        self.root = OUT / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._spawned = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(self.root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready: dict = {}
        self.setup_s = 0.0

    def wait_ready(self) -> None:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, self._process.kill)
        watchdog.start()
        try:
            self.ready = self._read()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - self._spawned

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self._process.wait()}")
        return json.loads(line)

    def command(self, word: str) -> dict:
        self._process.stdin.write(word + "\n")
        self._process.stdin.flush()
        return self._read()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self._process.poll() is None:
                self._process.stdin.write("quit\n")
                self._process.stdin.close()
                self._process.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self._process.poll() is None:
                self._process.kill()
            self._process.wait()
            self._process.stdout.close()
            shutil.rmtree(self.root, ignore_errors=True)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_probes(
    generator: Generator, workload: str, connections: list[Connection], direct: dict
) -> tuple[list[str], list[str]]:
    """Send the workload's share of the probe set; compare digests with the
    direct-kernel ones. Returns ``(failures, notes)``."""
    probes = generator.probes(endpoints_of(workload))
    stream = Stream(tuple(probes), cyclic=False)
    first = [len(c.samples) for c in connections]
    step = len(connections)
    run_segment(
        [(c, Cursor(stream, i, step)) for i, c in enumerate(connections)],
        seconds=0.0, min_requests=len(probes),
    )
    answers: dict[str, list] = {endpoint: [] for endpoint in endpoints_of(workload)}
    failures, notes = [], []
    for index, probe in enumerate(probes):
        sample = connections[index % step].samples[first[index % step] + index // step]
        try:
            payload = json.loads(sample.body)["payload"]
            answers[probe.endpoint].append(check.canonical_answer(probe.endpoint, payload))
        except (ValueError, KeyError, TypeError):
            answers[probe.endpoint].append(None)  # check_connection reports why
    for endpoint, rows in answers.items():
        digest = check.answers_digest(rows)
        notes.append(f"answers_digest {endpoint}: {digest}")
        if digest != direct[endpoint]:
            failures.append(
                f"probe digest of {endpoint} over HTTP {digest} != kernels {direct[endpoint]}"
            )
    return failures, notes


def describe(label: str, segment: Segment) -> str:
    return (
        f"{label}: n={len(segment.samples)} p50={segment.latency_ms(50):.3f} ms "
        f"p95={segment.latency_ms(95):.3f} ms rps={segment.rps:.2f}"
    )


def refresh_notes(weekly: dict | None, operator: dict | None) -> list[str]:
    notes = []
    if weekly is not None:
        notes.append(
            f"refresh_weekly_s {weekly['elapsed_s']:.3f} (no traffic) "
            f"artifact_digest {weekly['artifact_digest']}"
        )
    if operator is not None:
        notes.append(
            f"refresh_daily_s {median(operator['cycle_s']):.3f} "
            f"n={len(operator['cycle_s'])} skipped={operator['skipped']}"
        )
    return notes


def measure(
    workload: str, seed: int, seconds: float, server: Server | None = None
) -> Result:
    """The untraced run: subprocess server, real sockets, end-to-end metrics.

    ``server`` is only passed by ``--smoke``, which shares one server
    between the workloads to save their set-ups.
    """
    if server is None:
        with Server() as own:
            return measure(workload, seed, seconds, own)
    generator = Generator()  # built while the server is still setting up
    streams = generator.streams(workload, seed)
    if not server.ready:
        server.wait_ready()
    ready = server.ready
    notes = [
        f"streams sha256 {streams_digest(streams)}",
        f"week-0 artifact_digest {ready['weekly']['artifact_digest']} "
        f"relations {ready['weekly']['num_relations']}",
        "setup breakdown " + " ".join(f"{k}={v:.2f}s" for k, v in ready["setup_s"].items()),
    ]
    connections = [Connection(ready["port"]) for _ in range(CLIENTS)]
    failures, probe_notes = run_probes(
        generator, workload, connections, server.command(f"direct_digests {workload}")
    )
    notes += probe_notes
    refreshing = workload == "refresh_under_load"
    weekly = server.command("weekly_refresh") if refreshing else None
    if refreshing:
        server.command("operator_start")
    warm = streams["warmup"]
    dry = run_segment(
        [(c, Cursor(warm, i, CLIENTS)) for i, c in enumerate(connections)],
        WARMUP_S, min_requests=HOT_SET_SIZE // CLIENTS,
    ).dry
    latency = run_segment(
        [(connections[0], Cursor(streams["a0"]))], seconds * PHASE_A_SHARE
    )
    throughput = run_segment(
        [(c, Cursor(streams[f"b{i}"])) for i, c in enumerate(connections)],
        seconds * (1 - PHASE_A_SHARE),
    )
    operator = server.command("operator_stop") if refreshing else None
    read_out = server.command("read_out")
    for connection in connections:
        connection.close()
        failures += check_connection(connection)
    if dry or latency.dry or throughput.dry:
        failures.append("a non-repeating stream ran dry before its segment ended")
    if operator and operator["error"]:
        failures.append(f"daily refresh failed: {operator['error']}")
    notes += [describe("phase A, 1 client", latency),
              describe(f"phase B, {CLIENTS} clients", throughput)]
    notes += refresh_notes(weekly, operator)
    notes.append(f"cache {read_out['cache']}  admission shed {read_out['admission']['shed']}")
    metrics = {
        "setup_s": server.setup_s,
        "latency_p50_ms": latency.latency_ms(50),
        "latency_p95_ms": latency.latency_ms(95),
        "throughput_rps": throughput.rps,
        "server_rss_mb": read_out["rss_mb"],
    }
    attempted = sum(len(c.samples) for c in connections)
    return Result(workload, metrics, attempted, failures, notes)


@contextlib.contextmanager
def in_process_stack():
    """The same bring-up as ``server.py``, in this process (traced runs)."""
    root = OUT / f"trace-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    stack = server_module.build_stack(root)
    try:
        yield stack
    finally:
        stack.frontend.stop()
        shutil.rmtree(root, ignore_errors=True)


def trace_pass(workload: str, seed: int, seconds: float, stack=None) -> Result:
    """The traced run: stack and one client in this process, per-layer metrics.

    ``stack`` is only passed by ``--smoke`` (one stack for all workloads).
    """
    if stack is None:
        with in_process_stack() as own:
            return trace_pass(workload, seed, seconds, own)
    generator = Generator([entity.name for entity in stack.world.entities])
    streams = generator.streams(workload, seed)
    connection = Connection(stack.frontend.port)
    failures, notes = run_probes(generator, workload, [connection], stack.direct_digests(workload))
    refreshing = workload == "refresh_under_load"
    weekly, operator = None, None
    if refreshing:
        weeks = stack.weeks()
        weekly = stack.weekly_refresh(weeks[0])
        operator = server_module.Operator(stack.system, weeks)
        operator.start()
    run_segment([(connection, Cursor(streams["warmup"]))], WARMUP_S, HOT_SET_SIZE)
    cursor = Cursor(streams["a0"])
    untraced = run_segment([(connection, cursor)], seconds / 2)
    tracer = Tracer()
    before = server_module.read_out(stack)
    tracer.install()
    try:
        traced = Segment()
        deadline = time.perf_counter() + seconds / 2
        while time.perf_counter() < deadline and (request := cursor.next()) is not None:
            traced.samples.append(
                tracer.request(f"r{len(traced.samples)}", lambda: connection.send(request))
            )
    finally:
        tracer.uninstall()  # raises if a wrapper survives
    after = server_module.read_out(stack)
    cycles = operator.stop() if operator else None
    connection.close()
    failures += check_connection(connection)
    if cycles and cycles["error"]:
        failures.append(f"daily refresh failed: {cycles['error']}")
    tracer.write(OUT / f"trace-{workload}.jsonl")
    requests = self_times(tracer.spans)  # raises if self times do not add up
    served = {k: v for k, v in requests.items() if k.startswith("r")}
    n = len(traced.samples)

    def p50(key: str, scale: float = 1.0) -> float:
        return median([layers[key] for layers in served.values() if key in layers]) * scale

    def span_s(name: str) -> float:
        return median([
            s.duration for s in tracer.spans
            if s.name == name and (s.request or "").startswith("daily-")
        ])

    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses", "evictions")}
    admission = after["admission"]
    shed = sum(admission["shed"].values()) - sum(before["admission"]["shed"].values())
    admitted = admission["admitted"] - before["admission"]["admitted"]
    stages = dict(stack.weekly_report["stage_s"])
    stages.update(weekly["stage_s"] if weekly else {})
    attempted = len(connection.samples)
    metrics = {
        "http.self_us": p50("http", 1e6),
        "http.request_bytes": median([len(s.request.wire) for s in traced.samples]),
        "http.response_bytes": median([s.response_bytes for s in traced.samples]),
        "frontend.self_us": p50("dispatch", 1e6),
        "frontend.to_dict_us": p50("to_dict", 1e6),
        "frontend.queue_wait_us": p50(QUEUE_WAIT),
        "frontend.shed_share": shed / max(1, shed + admitted),
        "api.self_us": p50("api", 1e6),
        "runtime.self_us": p50("runtime", 1e6),
        "cache.get_us": p50("cache.get", 1e6),
        "cache.put_us": p50("cache.put", 1e6),
        "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "cache.evictions_per_req": cache["evictions"] / max(1, n),
        "reasoner.self_us": p50("reasoner", 1e6),
        "khop.us": p50("khop", 1e6),
        "khop.nodes_per_req": p50("khop.nodes"),
        "targeting.self_us": p50("targeting", 1e6),
        "preference.topk_us": p50("preference.topk", 1e6),
        "preference.users_scored_per_req": p50("preference.users_scored"),
        "daily.skipped": cycles["skipped"] if cycles else 0,
        "refresh_weekly_s": weekly["elapsed_s"] if weekly else 0.0,
        "refresh_daily_s": median(cycles["cycle_s"]) if cycles else 0.0,
        "failed_share": min(attempted, len(failures)) / attempted,
        "trace.overhead_share": traced.latency_ms(50) / untraced.latency_ms(50) - 1,
    }
    for stage in ("ner_extraction", "cooccurrence_embedding", "semantic_pretrain",
                  "candidate_generation", "alpc_ranking", "graph_ranking",
                  "artifact_freeze", "ensemble", "other"):
        metrics[f"refresh.{stage}_s"] = stages.get(stage, 0.0)
    for part in ("extract", "build", "publish", "open", "activate"):
        metrics[f"daily.{part}_s"] = span_s(f"daily.{part}")
    ladder = " -> ".join(
        f"{name} {p50('inclusive:' + name, 1e6):.1f}"
        for name in ("cache.get", "khop", "preference.topk", "runtime", "api", "dispatch", "http")
        if any("inclusive:" + name in layers for layers in served.values())
    )
    notes += [
        f"untraced n={len(untraced.samples)} p50={untraced.latency_ms(50):.3f} ms; "
        f"traced n={n} p50={traced.latency_ms(50):.3f} ms; {len(tracer.spans)} spans "
        f"in {OUT / f'trace-{workload}.jsonl'}",
        f"ladder, inclusive p50 us: {ladder}",
    ] + refresh_notes(weekly, cycles)
    return Result(workload, metrics, attempted, failures, notes)


def show(result: Result, section: str) -> None:
    print(f"== {result.workload} ({section}) ==")
    for note in result.notes:
        print(f"  {note}")
    for spec in SPEC[section]:
        print(f"  {spec['name']:36s} {result.metrics[spec['name']]:14.4f} {spec['unit']}")
    print(f"  attempted {result.attempted}  failed {len(result.failures)}")
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")
    sys.stdout.flush()


def run_set(seed: int, seconds: float, smoke: bool) -> dict[str, dict[str, Result]]:
    """Every workload, untraced then traced."""
    results: dict[str, dict[str, Result]] = {}
    if not smoke:
        for workload in WORKLOADS:
            results[workload] = {
                "end_to_end": measure(workload, seed, seconds),
                "per_layer": trace_pass(workload, seed, seconds),
            }
            for section, result in results[workload].items():
                show(result, section)
        return results
    # Smoke: one server and one in-process stack serve all four workloads in
    # turn (refresh_under_load last: it moves the generations).
    with Server() as server:
        for workload in WORKLOADS:
            results[workload] = {"end_to_end": measure(workload, seed, seconds, server)}
    with in_process_stack() as stack:
        for workload in WORKLOADS:
            results[workload]["per_layer"] = trace_pass(workload, seed, seconds, stack)
    for sections in results.values():
        for section, result in sections.items():
            show(result, section)
    return results


def compare(first: dict, second: dict) -> bool:
    """Print run-to-run differences against the bounds; True if all inside."""
    inside = True
    print("== repeat: relative difference against bound ==")
    for workload in WORKLOADS:
        for spec in SPEC["end_to_end"]:
            a = first[workload]["end_to_end"].metrics[spec["name"]]
            b = second[workload]["end_to_end"].metrics[spec["name"]]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= spec["bound"]
            inside &= ok
            print(f"  {workload:20s} {spec['name']:16s} {a:12.4f} {b:12.4f} "
                  f"{worse:+8.2%} bound {spec['bound']:.0%} {'ok' if ok else 'OUTSIDE'}")
    return inside


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=FIXED_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    check.self_test()
    if args.workload:
        section = "per_layer" if args.trace else "end_to_end"
        if args.trace:
            result = trace_pass(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
        show(result, section)
        print(result.last_line(section))
        return 0
    seconds = 3.0 if args.smoke else args.seconds
    runs = [run_set(args.seed, seconds, args.smoke) for _ in range(args.repeat)]
    inside = all(compare(runs[0], later) for later in runs[1:])
    correct = all(r.correct for run in runs for s in run.values() for r in s.values())
    print(json.dumps({
        workload: {
            section: json.loads(result.last_line(section))
            for section, result in sections.items()
        }
        for workload, sections in runs[-1].items()
    }))
    return 0 if correct and inside else 1


if __name__ == "__main__":
    sys.exit(main())
