"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``demo``
    Build a small world, run one offline refresh, answer one targeting
    request, and print the explainable expansion.
``world``
    Generate a synthetic world and export its behavior logs + Entity Dict
    to files (the input format downstream users would provide).
``graph-stats``
    Run Stage I + II on a world and print the mined graph's structural
    summary per stage.
``serve``
    Bring up the layered serving runtime (registry → runtime → cached read
    path → API), replay a burst of marketer requests through
    ``QueryFrontend.dispatch`` (the one online entry point), then print
    artifact versions, cache statistics and the ``/metrics`` exposition.
    With ``--port`` the same front end also binds the one HTTP listener
    and prints its URL: POST ``/expand``/``/target`` with admission control
    (``--max-concurrency``, ``--max-queue``, ``--queue-timeout``) and
    structured 429/503 shed envelopes with ``Retry-After``; GET/HEAD
    ``/metrics``, ``/health``, ``/drift``, ``/journeys``,
    ``/profile``, ``/frontend``; a graceful drain on shutdown.
    ``--hold SECONDS`` keeps it up, ``--log-json`` streams structured JSON
    logs to stdout.
``refresh``
    Run one checkpointed weekly refresh against ``--artifact-root`` (a
    temporary directory when omitted, as for every other command).
    ``--kill-after STAGE`` injects a crash right after that stage
    checkpoints (exit 3); a second invocation with ``--resume`` picks up
    from the surviving checkpoints and reports which stages were resumed
    plus the final artifact digest — byte-identical to an uninterrupted
    run.
``rollback``
    Publish ``--refreshes`` generations, then swap serving back to the
    previous one — the escape hatch for a bad artifact that slipped past
    the activation check. Exit 5 when there is no previous generation.

Exit codes
----------
0   success
2   usage error (bad arguments)
3   refresh interrupted by an injected crash — resumable with ``--resume``
4   refresh completed but the hot-swap was refused (empty graph);
    serving stayed on the previous generation
5   rollback requested but no previous generation exists
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EGL System reproduction (ICDE 2023) command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end mini demo")
    demo.add_argument("--entities", type=int, default=200)
    demo.add_argument("--users", type=int, default=150)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--phrase", default=None, help="marketer phrase (default: most popular entity)")
    demo.add_argument("--depth", type=int, default=2)
    demo.add_argument("--k", type=int, default=20)

    world = sub.add_parser("world", help="generate a world and export its data")
    world.add_argument("--entities", type=int, default=200)
    world.add_argument("--users", type=int, default=150)
    world.add_argument("--days", type=int, default=30)
    world.add_argument("--seed", type=int, default=7)
    world.add_argument("--events-out", default="events.jsonl")
    world.add_argument("--dict-out", default="entity_dict.tsv")

    stats = sub.add_parser("graph-stats", help="mine a graph and print stage summaries")
    stats.add_argument("--entities", type=int, default=200)
    stats.add_argument("--users", type=int, default=150)
    stats.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser("serve", help="run the serving runtime and replay requests")
    serve.add_argument("--entities", type=int, default=200)
    serve.add_argument("--users", type=int, default=150)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--requests", type=int, default=20, help="request burst size")
    serve.add_argument("--depth", type=int, default=2)
    serve.add_argument("--k", type=int, default=20)
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind the HTTP listener (POST queries, GET telemetry) on this "
             "port (0 = ephemeral)",
    )
    serve.add_argument(
        "--hold", type=float, default=0.0,
        help="keep the listener up for SECONDS after the replay",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="stream structured JSON logs to stdout",
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=8,
        help="front-end execution tokens (requests running at once)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="front-end admission queue depth; beyond it requests shed 429",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=0.25,
        help="max seconds a request may wait for an execution token",
    )

    refresh = sub.add_parser(
        "refresh", help="run a checkpointed weekly refresh (resumable)"
    )
    refresh.add_argument("--entities", type=int, default=200)
    refresh.add_argument("--users", type=int, default=150)
    refresh.add_argument("--seed", type=int, default=7)
    refresh.add_argument(
        "--artifact-root", default=None,
        help="registry directory (default: a temporary one that lives as "
             "long as the command); required for cross-process --resume",
    )
    refresh.add_argument(
        "--resume", action="store_true",
        help="reuse checkpoints left by an interrupted run",
    )
    refresh.add_argument(
        "--kill-after",
        choices=["cooccurrence", "candidates", "ranked", "ensemble"],
        default=None,
        help="inject a crash right after this stage checkpoints (exit 3)",
    )

    rollback = sub.add_parser(
        "rollback", help="swap serving back to the previous artifact generation"
    )
    rollback.add_argument("--entities", type=int, default=200)
    rollback.add_argument("--users", type=int, default=150)
    rollback.add_argument("--seed", type=int, default=7)
    rollback.add_argument("--kind", choices=["graph", "preferences"], default="graph")
    rollback.add_argument(
        "--refreshes", type=int, default=2,
        help="generations to publish before rolling back (1 demonstrates exit 5)",
    )
    return parser


def _make_world(args):
    from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig

    world = World(WorldConfig(num_entities=args.entities, num_users=args.users, seed=args.seed))
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=args.seed + 1))
    return world, generator


def cmd_demo(args) -> int:
    from repro.online import EGLSystem, target_users_for_phrases

    world, generator = _make_world(args)
    events = generator.generate()
    print(f"world: {world.num_entities} entities / {world.num_users} users; "
          f"{len(events)} behavior events")

    system = EGLSystem(world, artifact_root=args.root)
    start = time.perf_counter()
    report = system.weekly_refresh(events)
    system.daily_preference_refresh(events)
    print(f"offline refresh: {report.num_relations} relations mined "
          f"in {time.perf_counter() - start:.0f}s")
    versions = system.runtime.versions()
    print(f"serving artifacts: graph v{versions['graph_version']}, "
          f"preferences v{versions['preference_version']}")

    phrase = args.phrase or max(world.entities, key=lambda e: e.popularity).name
    print(f"\nmarketer phrase: {phrase!r} (depth {args.depth})")
    view, result = target_users_for_phrases(
        system.runtime.acquire(), [phrase], depth=args.depth, k=args.k
    )
    for entity in view.top(8):
        print(f"  hop {entity.hop}  {entity.score:.3f}  {entity.name:<20s} "
              f"via {' > '.join(entity.path)}")
    print(f"\nexported {len(result.users)} users "
          f"in {result.elapsed_seconds * 1000:.1f} ms; top 5:")
    for user in result.users[:5]:
        print(f"  user {user.user_id:>4d}  preference {user.score:.3f}")
    return 0


def cmd_world(args) -> int:
    from repro.datasets.io import save_entity_dict, save_events
    from repro.text import EntityDict

    world, generator = _make_world(args)
    events = generator.generate(num_days=args.days)
    n_events = save_events(events, args.events_out)
    n_entities = save_entity_dict(EntityDict.from_world(world), args.dict_out)
    print(f"wrote {n_events} events to {args.events_out}")
    print(f"wrote {n_entities} entity dict rows to {args.dict_out}")
    return 0


def cmd_graph_stats(args) -> int:
    from repro.graph.metrics import summarize_graph
    from repro.trmp import TRMPipeline

    world, generator = _make_world(args)
    events = generator.generate()
    pipeline = TRMPipeline(world)
    run = pipeline.run_week(events)
    print("candidate graph:", summarize_graph(run.candidate.graph).to_text())
    print("ranked graph:   ", summarize_graph(run.ranked_graph).to_text())
    truth = world.ground_truth_graph(0.75)
    print("ground truth:   ", summarize_graph(truth).to_text())
    return 0


def cmd_serve(args) -> int:
    from repro.online import EGLSystem
    from repro.online.api import EGLService
    from repro.serving.frontend import QueryFrontend

    if args.requests < 1:
        print("error: --requests must be a positive integer", file=sys.stderr)
        return 2
    world, generator = _make_world(args)
    events = generator.generate()
    system = EGLSystem(world, artifact_root=args.root)
    if args.log_json:
        system.obs.logger.attach_stream(sys.stdout)
    print("publishing offline artifacts...")
    report = system.weekly_refresh(events)
    system.daily_preference_refresh(events)
    versions = system.runtime.versions()
    print(f"  graph artifact    v{versions['graph_version']} ({versions['graph_tag']}), "
          f"{report.num_relations} relations")
    print(f"  preference artifact v{versions['preference_version']} "
          f"({versions['preference_tag']})")

    service = EGLService(system)
    frontend = QueryFrontend(
        service,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        port=args.port or 0,
    )
    popular = sorted(world.entities, key=lambda e: -e.popularity)
    phrases = [e.name for e in popular[: max(1, min(5, args.requests))]]
    print(f"\nreplaying {args.requests} expand+target requests "
          f"over {len(phrases)} phrases (depth {args.depth}, k {args.k})...")
    start = time.perf_counter()
    ok = 0
    for i in range(args.requests):
        _, expand = frontend.dispatch(
            "expand", {"phrases": [phrases[i % len(phrases)]], "depth": args.depth}
        )
        if not expand["ok"]:
            continue
        ids = [e["entity_id"] for e in expand["payload"]["entities"]][:10]
        _, target = frontend.dispatch("target", {"entity_ids": ids, "k": args.k})
        ok += int(target["ok"])
    elapsed_ms = (time.perf_counter() - start) * 1000
    print(f"  {ok}/{args.requests} requests served in {elapsed_ms:.1f} ms "
          f"({elapsed_ms / max(args.requests, 1):.2f} ms/request)")

    health = system.runtime.health()
    cache = health["cache"]
    print(f"\nruntime health: swaps {health['swap_count']}, "
          f"graph v{health['graph_version']}, preferences v{health['preference_version']}")
    print(f"expansion cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.0%}, size {cache['size']}/{cache['capacity']})")
    drift = health["drift"]
    for kind in ("graph", "preferences"):
        last = drift[kind]
        if last is not None:
            print(f"drift [{kind}]: {last['severity']} "
                  f"(v{last['old_version']} -> v{last['new_version']})")
    _print_stage_breakdown(report)

    if args.port is not None:
        frontend.start()
        try:
            print(f"\nlistener: {frontend.url}")
            for endpoint in frontend.POST_ENDPOINTS:
                print(f"  POST {frontend.url}/{endpoint}")
            for route in frontend.routes():
                print(f"  GET  {frontend.url}{route}")
            snap = frontend.admission.snapshot()
            print(f"admission: {snap['max_concurrency']} tokens, "
                  f"queue {snap['max_queue']} deep, "
                  f"wait <= {snap['queue_timeout'] * 1000:.0f} ms, then shed 429")
            if args.hold > 0:
                print(f"holding for {args.hold:.0f}s (ctrl-c to stop early)...")
                try:
                    time.sleep(args.hold)
                except KeyboardInterrupt:
                    pass
        finally:
            drained = frontend.stop()
            print(f"front end stopped (drained={drained}, "
                  f"admitted={frontend.admission.admitted}, "
                  f"shed={sum(frontend.admission.shed.values())})")

    print("\n=== /metrics ===")
    print(service.metrics_text(), end="")
    return 0


def _print_stage_breakdown(report) -> None:
    stage_seconds = report.stage_seconds
    if not stage_seconds:
        return
    print("\nweekly refresh stage breakdown:")
    total = sum(stage_seconds.values())
    for stage, seconds in sorted(stage_seconds.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        print(f"  {stage:<24s} {seconds * 1000:>9.1f} ms  ({share:.0%})")
    for stage, seconds in report.overlapped_seconds.items():
        print(f"  overlapped in the stage worker: {stage} "
              f"{seconds * 1000:.1f} ms busy")


def cmd_refresh(args) -> int:
    from repro.online import EGLSystem
    from repro.resilience import FaultInjector, InjectedCrash

    world, generator = _make_world(args)
    events = generator.generate()
    faults = None
    if args.kill_after is not None:
        faults = FaultInjector()
        faults.fail_at(f"pipeline.{args.kill_after}", 1, exception=InjectedCrash)
    system = EGLSystem(world, artifact_root=args.root, faults=faults)

    if args.resume:
        runs = system.registry.checkpoints.runs()
        if runs:
            print(f"resuming from checkpoints: {', '.join(sorted(runs))}")
        else:
            print("no checkpoints found; running from scratch")
    try:
        report = system.weekly_refresh(events, resume=args.resume)
    except InjectedCrash as crash:
        done = system.registry.checkpoints.completed_stages("weekly-0000")
        print(f"refresh interrupted: {crash}", file=sys.stderr)
        print(f"checkpointed stages: {', '.join(done) or '(none)'}", file=sys.stderr)
        if args.artifact_root:
            print(f"resume with: repro refresh --resume "
                  f"--artifact-root {args.artifact_root} --seed {args.seed}",
                  file=sys.stderr)
        return 3

    print(f"refresh {report.run_id}: week {report.week}, "
          f"graph v{report.graph_version}, "
          f"{report.num_relations} relations")
    if report.resumed_stages:
        print(f"  resumed stages: {', '.join(report.resumed_stages)}")
    print(f"  artifact digest: {report.artifact_digest}")
    _print_stage_breakdown(report)
    if report.swap_rejected:
        print(f"  hot-swap rejected: {report.swap_rejected_reason}", file=sys.stderr)
        print("  serving stays on the previous generation", file=sys.stderr)
        return 4
    return 0


def cmd_rollback(args) -> int:
    from repro.errors import NotFittedError
    from repro.online import EGLSystem

    if args.refreshes < 1:
        print("error: --refreshes must be a positive integer", file=sys.stderr)
        return 2
    world, generator = _make_world(args)
    system = EGLSystem(world, artifact_root=args.root)
    for _ in range(args.refreshes):
        events = generator.generate()
        report = system.weekly_refresh(events)
        system.daily_preference_refresh(events)
        print(f"published week {report.week}: graph v{report.graph_version}")

    key = "graph_version" if args.kind == "graph" else "preference_version"
    before = system.runtime.versions()[key]
    try:
        after = system.rollback(args.kind)[key]
    except NotFittedError as error:
        print(f"error: nothing to roll back — {error}", file=sys.stderr)
        return 5
    print(f"rolled back {args.kind}: v{before} -> v{after}")
    health = system.runtime.health()
    print(f"runtime health: rollback_available={health['rollback_available']}")
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "world": cmd_world,
    "graph-stats": cmd_graph_stats,
    "serve": cmd_serve,
    "refresh": cmd_refresh,
    "rollback": cmd_rollback,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    with tempfile.TemporaryDirectory(prefix="repro-") as scratch:
        # The registry is always on disk: without --artifact-root the
        # command's artifacts live exactly as long as the command.
        args.root = getattr(args, "artifact_root", None) or scratch
        return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
