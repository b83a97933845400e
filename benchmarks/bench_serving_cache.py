"""Serving runtime micro-benchmark: cold vs warm k-hop expansion latency.

The layered serving runtime answers repeated marketer queries from a
version-keyed read-through cache. This benchmark measures the same
expansion request cold (first hit on a fresh artifact version, full k-hop
traversal) and warm (served from cache), plus the batched-vs-sequential
targeting speedup — the two read-path optimisations behind the
"milliseconds under heavy traffic" serving goal.

Smoke mode (``BENCH_SERVING_SMOKE=1``, used by the CI perf-history job)
runs the same measurement on a smaller world with fewer warm rounds —
fast enough for every CI run, same history.jsonl rows.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import numpy as np

from repro.online import EGLSystem

from bench_common import (
    bench_system,
    bench_trmp_config,
    format_table,
    get_context,
    record_history,
    save_result,
)

SMOKE = os.environ.get("BENCH_SERVING_SMOKE", "") not in ("", "0")
WARM_ROUNDS = 10 if SMOKE else 50


def _prepare_system() -> tuple[object, EGLSystem]:
    if SMOKE:
        from repro.datasets import (
            BehaviorConfig,
            BehaviorLogGenerator,
            World,
            WorldConfig,
        )

        world = World(WorldConfig(num_entities=120, num_users=100, seed=7))
        generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=10, seed=11))
        events = generator.generate()
        system = bench_system(world)
        system.weekly_refresh(events)
        recent = generator.generate(start_day=100, num_days=10, rng=99)
        system.daily_preference_refresh(recent)
        return SimpleNamespace(world=world, generator=generator), system
    context = get_context()
    system = bench_system(context.world, bench_trmp_config())
    system.weekly_refresh(context.events)
    recent = context.generator.generate(start_day=100, num_days=30, rng=99)
    system.daily_preference_refresh(recent)
    return context, system


def run_bench() -> dict:
    context, system = _prepare_system()
    world = context.world
    popular = sorted(world.entities, key=lambda e: -e.popularity)
    phrases = [e.name for e in popular[:5]]

    runtime = system.runtime
    active = runtime.acquire()
    per_phrase = []
    for phrase in phrases:
        start = time.perf_counter()
        view = runtime.expand(active, [phrase], depth=2)
        cold_s = time.perf_counter() - start

        warm_samples = []
        for _ in range(WARM_ROUNDS):
            start = time.perf_counter()
            runtime.expand(active, [phrase], depth=2)
            warm_samples.append(time.perf_counter() - start)
        warm_s = float(np.mean(warm_samples))
        per_phrase.append(
            {
                "phrase": phrase,
                "entities": len(view.entities),
                "cold_ms": cold_s * 1000,
                "warm_ms": warm_s * 1000,
                "speedup": cold_s / max(warm_s, 1e-12),
            }
        )

    # Batched vs sequential targeting over the expanded entity sets.
    entity_sets = [
        [e.entity_id for e in runtime.expand(active, [p], depth=2).top(10)] for p in phrases
    ]
    start = time.perf_counter()
    for ids in entity_sets:
        runtime.target(active, ids, k=50)
    sequential_ms = (time.perf_counter() - start) * 1000
    start = time.perf_counter()
    runtime.target_batch(active, entity_sets, k=50)
    batched_ms = (time.perf_counter() - start) * 1000

    return {
        "mode": "smoke" if SMOKE else "full",
        "per_phrase": per_phrase,
        "cold_ms_mean": float(np.mean([p["cold_ms"] for p in per_phrase])),
        "warm_ms_mean": float(np.mean([p["warm_ms"] for p in per_phrase])),
        "speedup_mean": float(np.mean([p["speedup"] for p in per_phrase])),
        "targeting_sequential_ms": sequential_ms,
        "targeting_batched_ms": batched_ms,
        "targeting_batch_speedup": sequential_ms / max(batched_ms, 1e-9),
        "cache": system.runtime.cache.stats(),
        "versions": system.runtime.versions(),
    }


def test_serving_cache_cold_vs_warm(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    rows = [
        [
            p["phrase"],
            p["entities"],
            f"{p['cold_ms']:.3f}",
            f"{p['warm_ms']:.4f}",
            f"{p['speedup']:.0f}x",
        ]
        for p in payload["per_phrase"]
    ]
    text = format_table(
        "Serving cache — cold vs warm 2-hop expansion latency",
        ["phrase", "entities", "cold ms", "warm ms", "speedup"],
        rows,
    )
    cache = payload["cache"]
    text += (
        f"\nmean: cold {payload['cold_ms_mean']:.3f} ms vs warm "
        f"{payload['warm_ms_mean']:.4f} ms ({payload['speedup_mean']:.0f}x); "
        f"cache hit rate {cache['hit_rate']:.0%} "
        f"({cache['hits']} hits / {cache['misses']} misses).\n"
        f"targeting 5 entity sets: sequential {payload['targeting_sequential_ms']:.2f} ms "
        f"vs batched {payload['targeting_batched_ms']:.2f} ms "
        f"({payload['targeting_batch_speedup']:.1f}x).\n"
        f"active artifacts: graph v{payload['versions']['graph_version']}, "
        f"preferences v{payload['versions']['preference_version']}.\n"
    )
    save_result("serving_cache", payload, text)
    record_history(
        f"serving_cache_{payload['mode']}",
        {
            "speedup_mean": payload["speedup_mean"],
            "warm_ms_mean": payload["warm_ms_mean"],
            "cold_ms_mean": payload["cold_ms_mean"],
            "targeting_batch_speedup": payload["targeting_batch_speedup"],
        },
        directions={"warm_ms_mean": "lower", "cold_ms_mean": "lower"},
        config={"warm_rounds": WARM_ROUNDS},
    )

    # Acceptance: warm expansion must be at least 5x faster than cold.
    assert payload["speedup_mean"] >= 5.0
    assert payload["warm_ms_mean"] < payload["cold_ms_mean"]
    assert cache["hits"] >= WARM_ROUNDS * len(payload["per_phrase"])
