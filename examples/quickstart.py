"""Quickstart: build a world, run the EGL offline pipeline, target users.

Run with::

    python examples/quickstart.py

Takes ~30 s on a laptop. Walks through the full system once:

1. generate a synthetic world + one month of user behavior logs;
2. offline stage: TRMP mines the entity graph, preferences are computed;
3. online stage: a marketer phrase is expanded and users are exported.
"""

from __future__ import annotations

import time

from repro import EGLSystem, World, WorldConfig
from repro.datasets import BehaviorConfig, BehaviorLogGenerator


def main() -> None:
    print("=== 1. Synthetic world ===")
    world = World(WorldConfig(num_entities=250, num_users=250, seed=7))
    print(f"{world.num_entities} entities, {world.num_users} users, "
          f"{world.num_topics} latent topics")

    generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=30, seed=11))
    events = generator.generate()
    print(f"{len(events)} behavior events (search/visit logs)")

    print("\n=== 2. Offline stage (weekly TRMP refresh) ===")
    system = EGLSystem(world)
    report = system.weekly_refresh(events)
    print(f"week {report.week}: mined {report.num_relations} relations "
          f"in {report.elapsed_seconds:.0f}s")

    covered = system.daily_preference_refresh(events)
    print(f"daily preference refresh covered {covered} users")
    versions = system.runtime.versions()
    print(f"published artifacts: graph v{versions['graph_version']} "
          f"({versions['graph_tag']}), preferences v{versions['preference_version']} "
          f"({versions['preference_tag']})")

    print("\n=== 3. Online stage (marketer request) ===")
    # Pick a popular entity as the marketer's service phrase.
    seed_entity = max(world.entities, key=lambda e: e.popularity)
    print(f"marketer types: {seed_entity.name!r}")

    view, result = system.target_users_for_phrases([seed_entity.name], depth=2, k=20)
    print(f"2-hop expansion found {len(view.entities)} related entities:")
    for entity in view.top(8):
        path = " > ".join(entity.path)
        print(f"  hop {entity.hop}  score {entity.score:.3f}  {entity.name:<18s} via {path}")

    print(f"\nexported top-{len(result.users)} users "
          f"in {result.elapsed_seconds * 1000:.1f} ms:")
    for user in result.users[:5]:
        print(f"  user {user.user_id:>4d}  preference {user.score:.3f}")

    # The same request again is served from the version-keyed expansion
    # cache — the read path the serving runtime keeps warm under traffic.
    start = time.perf_counter()
    system.target_users_for_phrases([seed_entity.name], depth=2, k=20)
    cached_ms = (time.perf_counter() - start) * 1000
    cache = system.runtime.cache.stats()
    print(f"\nrepeat request: {cached_ms:.2f} ms "
          f"(expansion cache: {cache['hits']} hits / {cache['misses']} misses)")

    print("\n=== 4. Observability ===")
    # The weekly refresh timed each TRMP stage through the obs layer.
    total = sum(report.stage_seconds.values()) or 1.0
    for stage, seconds in sorted(report.stage_seconds.items(), key=lambda s: -s[1]):
        print(f"  {stage:<24s} {seconds * 1000:8.1f} ms  ({seconds / total:5.1%})")
    snapshot = system.obs.metrics.snapshot()
    swaps = sum(s["value"] for s in snapshot["counters"]["serving_hot_swaps_total"])
    print(f"hot swaps: {swaps:.0f}, metric families: "
          f"{len(snapshot['counters']) + len(snapshot['gauges']) + len(snapshot['histograms'])} "
          f"(see `python -m repro.cli serve` for the /metrics exposition)")


if __name__ == "__main__":
    main()
