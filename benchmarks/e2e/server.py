"""The serving stack under test, as a subprocess with a control pipe.

``build_stack`` is the whole offline-then-online bring-up on the fixed
dataset: world → behaviour log → ``EGLSystem(store_path, artifact_root)``
→ ``weekly_refresh`` → ``daily_preference_refresh`` → ``EGLService`` →
``QueryFrontend(service).start()``, all with the library's defaults, so
the stack serves CSR + memmap artifacts at ``n_shards=1``.

Run as a program it prints one JSON ``ready`` line (port, set-up
breakdown, artifact digest) and then obeys one-line commands on stdin,
answering each with one JSON line: the load generator in ``run.py`` talks
to the listener over real sockets and uses this pipe only for what an
operator would do (refreshes) and for read-outs (RSS, cache and admission
counters, the direct-kernel probe digest). End of input stops the server,
so it cannot outlive the benchmark.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.datasets import BehaviorLogGenerator, World  # noqa: E402
from repro.embeddings.mlm import MLMConfig  # noqa: E402
from repro.embeddings.semantic import SemanticEncoderConfig  # noqa: E402
from repro.embeddings.skipgram import SkipGramConfig  # noqa: E402
from repro.online import EGLSystem  # noqa: E402
from repro.online.api import EGLService  # noqa: E402
from repro.online.system import RefreshReport  # noqa: E402
from repro.serving.frontend import QueryFrontend  # noqa: E402
from repro.trmp.alpc import ALPCConfig  # noqa: E402
from repro.trmp.ensemble import EnsembleConfig  # noqa: E402
from repro.trmp.pipeline import TRMPConfig  # noqa: E402

from check import answers_digest, canonical_answer  # noqa: E402
from workloads import (  # noqa: E402
    BEHAVIOR_CONFIG,
    MAX_ENTITIES,
    WORLD_CONFIG,
    Generator,
    endpoints_of,
)

#: A daily refresh starts this often in ``refresh_under_load``.
DAILY_PERIOD_S = 3.0


def trmp_config() -> TRMPConfig:
    """The fixed offline schedule: short, but every stage trains."""
    return TRMPConfig(
        skipgram=SkipGramConfig(epochs=4),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=2)),
        alpc=ALPCConfig(epochs=10),
        ensemble=EnsembleConfig(epochs=10),
        ensemble_window=4,
    )


def report_dict(report: RefreshReport) -> dict:
    stages = dict(report.stage_seconds)
    stages["other"] = report.elapsed_seconds - sum(stages.values())
    return {
        "elapsed_s": report.elapsed_seconds,
        "stage_s": stages,
        "artifact_digest": report.artifact_digest,
        "num_relations": report.num_relations,
        "graph_version": report.graph_version,
    }


@dataclass
class Stack:
    """Everything ``build_stack`` brought up, plus how long each part took."""

    world: World
    generator: BehaviorLogGenerator
    system: EGLSystem
    service: EGLService
    frontend: QueryFrontend
    weekly_report: dict
    setup_s: dict

    def weeks(self) -> list[list]:
        """Events of weeks 1-4: week 1 feeds the weekly refresh of
        ``refresh_under_load``, all four feed the operator's daily cycles."""
        return [self.generator.generate_week(week) for week in range(1, 5)]

    def weekly_refresh(self, events: list) -> dict:
        return report_dict(self.system.weekly_refresh(events))

    def direct_digests(self, workload: str) -> dict[str, str]:
        """The workload's probe answers, straight from the kernels of the
        active generation.

        Expansions come from ``GraphReasoner.expand`` and audiences from
        ``PreferenceStore.top_users_for_entities`` (one call per set, also
        for batches), passed through the facade's ``max_entities`` cut and
        6-dp score rounding so that they digest like a response.
        """
        active = self.system.runtime.acquire()
        reasoner = active.require_reasoner()
        store = active.preference_store
        payloads = Generator([e.name for e in self.world.entities]).probe_payloads()

        def audience(request: dict) -> dict:
            users = store.top_users_for_entities(
                request["entity_ids"], request["k"], weights=request["weights"]
            )
            order = [(-u.score, u.user_id) for u in users]
            if order != sorted(order):
                raise AssertionError("kernel order is not score desc, user id asc")
            return {
                "users": [
                    {"user_id": u.user_id, "score": round(u.score, 6)} for u in users
                ]
            }

        def expansion(request: dict) -> dict:
            view = reasoner.expand(request["phrases"], depth=request["depth"])
            return {
                "entities": [
                    {"entity_id": e.entity_id, "score": round(e.score, 6)}
                    for e in view.top(MAX_ENTITIES)
                ]
            }

        answer = {
            "expand": expansion,
            "target": audience,
            "target_batch": lambda p: {"results": [audience(r) for r in p["requests"]]},
        }
        return {
            endpoint: answers_digest(
                [canonical_answer(endpoint, answer[endpoint](p)) for p in payloads[endpoint]]
            )
            for endpoint in endpoints_of(workload)
        }


def build_stack(root: Path) -> Stack:
    """Bring the stack up on the fixed dataset; artifacts go under ``root``."""
    marks = [("start", time.perf_counter())]

    def mark(name: str) -> None:
        marks.append((name, time.perf_counter()))

    world = World(WORLD_CONFIG)
    generator = BehaviorLogGenerator(world, BEHAVIOR_CONFIG)
    events = generator.generate()
    mark("world_and_events")
    system = EGLSystem(
        world, trmp_config(), store_path=root / "store", artifact_root=root / "registry"
    )
    report = system.weekly_refresh(events)
    mark("weekly_refresh")
    system.daily_preference_refresh(events)
    mark("daily_refresh")
    service = EGLService(system)
    frontend = QueryFrontend(service).start()
    mark("listener")
    setup = {
        name: end - start for (_, start), (name, end) in zip(marks, marks[1:])
    }
    return Stack(
        world, generator, system, service, frontend, report_dict(report), setup
    )


class Operator:
    """Starts a daily preference refresh every ``DAILY_PERIOD_S`` seconds.

    One thread: a tick that falls while the previous refresh is still
    running is skipped, not queued. The week's events are generated before
    the thread starts, so a cycle's wall time is the refresh alone.
    """

    def __init__(self, system: EGLSystem, weeks: list[list]) -> None:
        self._system = system
        self._weeks = weeks
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="operator", daemon=True)
        self.cycle_s: list[float] = []
        self.skipped = 0
        self.error: str | None = None

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> dict:
        """Stop after the cycle in flight; returns the cycle read-out."""
        self._stop.set()
        self._thread.join()
        return {"cycle_s": self.cycle_s, "skipped": self.skipped, "error": self.error}

    def _run(self) -> None:
        origin = time.perf_counter()
        tick = 0
        while not self._stop.wait(max(0.0, origin + tick * DAILY_PERIOD_S - time.perf_counter())):
            start = time.perf_counter()
            try:
                self._system.daily_preference_refresh(self._weeks[tick % len(self._weeks)])
            except Exception as error:  # reported to the benchmark, which fails the run
                self.error = f"{type(error).__name__}: {error}"
                return
            end = time.perf_counter()
            self.cycle_s.append(end - start)
            due = int((end - origin) // DAILY_PERIOD_S) + 1
            self.skipped += due - tick - 1
            tick = due


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB.

    Not ``ru_maxrss``: Linux carries that across ``execve``, so a server
    spawned by a large load generator would report its parent's peak.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # the kernel reports KiB
    raise RuntimeError("no VmHWM in /proc/self/status")


def read_out(stack: Stack) -> dict:
    """Counters and memory at this instant (end-of-run read-out)."""
    return {
        "rss_mb": peak_rss_mb(),
        "cache": stack.system.runtime.cache_stats(),
        "admission": stack.frontend.admission.snapshot(),
        "versions": stack.system.runtime.versions(),
    }


def main() -> int:
    root = Path(sys.argv[1])
    stack = build_stack(root)

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({
        "event": "ready",
        "port": stack.frontend.port,
        "setup_s": stack.setup_s,
        "weekly": stack.weekly_report,
    })
    weeks: list[list] = []
    operator: Operator | None = None
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "direct_digests":
            reply(stack.direct_digests(argument))
        elif command == "weekly_refresh":
            weeks = stack.weeks()
            reply(stack.weekly_refresh(weeks[0]))
        elif command == "operator_start":
            operator = Operator(stack.system, weeks)
            operator.start()
            reply({"started": True})
        elif command == "operator_stop":
            reply(operator.stop())
        elif command == "read_out":
            reply(read_out(stack))
        elif command == "quit":
            break
        else:
            reply({"error": f"unknown command {command!r}"})
    drained = stack.frontend.stop()
    reply({"event": "stopped", "drained": drained})
    return 0


if __name__ == "__main__":
    sys.exit(main())
