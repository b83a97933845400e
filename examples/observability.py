"""Observability tour: metrics, request records, and the injectable clock.

Run with::

    python examples/observability.py

Takes a few seconds. Shows the three faces of ``repro.obs`` on a small
system:

1. the Prometheus-style ``/metrics`` exposition after a request mix;
2. one request's record — outcome, cache hit/miss and its phase waterfall;
3. a ``ManualClock``, which makes latencies deterministic in tests.
"""

from __future__ import annotations

import tempfile

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.obs import ManualClock, Observability, phase
from repro.online.api import EGLService
from repro.online.system import EGLSystem
from repro.serving.frontend import QueryFrontend


def main(artifact_root: str) -> None:
    world = World(WorldConfig(num_entities=120, num_users=100, seed=5))
    events = BehaviorLogGenerator(world, BehaviorConfig(num_days=21, seed=9)).generate()

    system = EGLSystem(world, artifact_root=artifact_root)
    system.weekly_refresh(events)
    system.daily_preference_refresh(events)
    service = EGLService(system)
    frontend = QueryFrontend(service)  # the one entry point; no socket needed

    print("=== 1. A request mix, then the /metrics exposition ===")
    popular = sorted(world.entities, key=lambda e: -e.popularity)[:3]
    for entity in popular:
        _, cold = frontend.dispatch("expand", {"phrases": [entity.name], "depth": 2})
        frontend.dispatch("expand", {"phrases": [entity.name], "depth": 2})  # cache hit
        ids = [e["entity_id"] for e in cold["payload"]["entities"][:5]]
        frontend.dispatch("target", {"entity_ids": ids, "k": 10})
    frontend.dispatch("expand", {"phrases": ["anything"], "depth": -1})  # rejected

    exposition = service.metrics_text()
    shown = [
        line for line in exposition.splitlines()
        if line.startswith(("requests_total", "serving_expansion_cache",
                            "serving_active_version"))
    ]
    print("\n".join(shown))
    print(f"... plus histograms ({len(exposition.splitlines())} lines total)")

    print("\n=== 2. One request = one record ===")
    # The first expansion was a cache miss, so its record holds the k-hop phases.
    cold = next(j for j in system.obs.journeys.tail() if j["cache"] == "miss")
    print(f"  request {cold['id']}: {cold['endpoint']} ok={cold['ok']} "
          f"{cold['duration_ms']:.2f} ms cache={cold['cache']} hops={cold['hops']}")
    for name, depth, start_us, dur_us in cold["phases"]:
        print(f"  {'  ' * depth}{name:<{24 - 2 * depth}s} +{start_us:8.1f} µs {dur_us:8.1f} µs")

    print("\n=== 3. Frozen time with ManualClock ===")
    clock = ManualClock(start=1_000.0)
    obs = Observability(clock=clock)
    record = obs.journeys.open("demo")
    with phase("outer"):
        clock.advance(0.25)
        with phase("inner"):
            clock.advance(0.05)
    obs.journeys.close(record, ok=True, code=None)
    (journey,) = obs.journeys.tail()
    outer, inner = journey["phases"]
    print(f"  outer: {outer[3] / 1000:.0f} ms (exactly the advances: 250+50)")
    print(f"  inner: {inner[3] / 1000:.0f} ms, nested at depth {inner[1]}, "
          f"record stamped ts={journey['ts']}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="registry-") as root:
        main(root)
