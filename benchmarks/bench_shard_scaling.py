"""Shard-scaling benchmark: serving throughput at 1 → 8 shards, same kernel.

Runs a targeting-dominated request stream (the paper's online mix: k-hop
expansion of the marketer's phrases, then top-K user selection over the
expanded entities) through the one serving stack at every shard count:

* 1 shard: the flat :class:`GraphStore` CSR reader plus a one-partition
  :class:`PreferenceStore`;
* N shards: the scatter-gather graph reader plus the same store split into
  N hash partitions (``store.partitioned(N)``) — the same scoring kernel
  run once per partition and merged, inline on the calling thread; one
  extra row runs 4 shards on a 4-thread :class:`ShardWorkerPool`;
* the gate is byte parity: every request's expansion, users, order and
  scores must equal the 1-shard answer exactly.

``same_kernel_ratio_Nx`` = 1-shard time / N-shard time, so it isolates
what in-process sharding itself costs (or buys). There is no throughput
gate; the ratios are recorded in the perf history and fall under its
trailing-median trend gate.

Smoke mode (``BENCH_SHARD_SMOKE=1``, the CI step) runs the same parity
checks on a smaller world.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from repro.graph import GraphStore, ShardedGraphStore, ShardWorkerPool, k_hop_expansion
from repro.preference import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence

from bench_common import format_table, record_history, save_result

SMOKE = os.environ.get("BENCH_SHARD_SMOKE", "") not in ("", "0")
#: ~10x the tier-1 test world in full mode.
NUM_ENTITIES = 600 if SMOKE else 2_000
NUM_USERS = 3_000 if SMOKE else 4_000
NUM_EDGES = 4_000 if SMOKE else 12_000
DIM = 64
NUM_REQUESTS = 20 if SMOKE else 60
SHARD_COUNTS = [1, 2, 4, 8]
DEPTH = 2
#: Expansion cap per request — the targeting union size.
MAX_NODES = 100
TOP_K = 50
#: Thread-pool row: shard count and pool size.
POOLED_SHARDS = 4
#: Timed passes over the stream per stack; the fastest counts.
PASSES = 5


def _random_edges(num_nodes: int, num_edges: int, rng: np.random.Generator):
    pairs: dict[tuple[int, int], float] = {}
    while len(pairs) < num_edges:
        need = num_edges - len(pairs)
        src = rng.integers(0, num_nodes, size=2 * need)
        dst = rng.integers(0, num_nodes, size=2 * need)
        ws = rng.uniform(0.05, 1.0, size=2 * need)
        keep = src != dst
        for u, v, w in zip(src[keep], dst[keep], ws[keep]):
            pairs.setdefault((min(int(u), int(v)), max(int(u), int(v))), float(w))
            if len(pairs) == num_edges:
                break
    edges = sorted(pairs)
    weights = np.asarray([pairs[e] for e in edges])
    return np.asarray(edges, dtype=np.int64), weights


def _build_preferences(rng: np.random.Generator) -> PreferenceStore:
    embeddings = rng.standard_normal((NUM_ENTITIES, DIM))
    sequences = {
        u: UserEntitySequence(u, [int(x) for x in rng.integers(0, NUM_ENTITIES, 8)])
        for u in range(NUM_USERS)
    }
    store = PreferenceStore(embeddings)
    store.build(sequences, NUM_USERS)
    return store


def _serve(graph_reader, preferences, requests):
    """Run the request stream once; return (elapsed_s, responses)."""
    responses = []
    start = time.perf_counter()
    for seeds in requests:
        view = k_hop_expansion(graph_reader, seeds, DEPTH, max_nodes=MAX_NODES)
        entity_ids = view.entities()
        weights = np.asarray([view.scores[e] for e in entity_ids])
        users = preferences.top_users_for_entities(entity_ids, TOP_K, weights)
        responses.append((view.scores, [(u.user_id, u.score) for u in users]))
    return time.perf_counter() - start, responses


def run_bench() -> dict:
    root = tempfile.mkdtemp(prefix="bench-shards-")
    try:
        return _run_bench(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_bench(root: str) -> dict:
    rng = np.random.default_rng(29)
    pairs, weights = _random_edges(NUM_ENTITIES, NUM_EDGES, rng)
    preferences = _build_preferences(rng)
    requests = [
        sorted(int(s) for s in rng.choice(NUM_ENTITIES, size=3, replace=False))
        for _ in range(NUM_REQUESTS)
    ]

    flat = GraphStore(os.path.join(root, "flat"), num_nodes=NUM_ENTITIES)
    flat.put_edges(pairs, weights)
    flat_reader = flat.snapshot_reader(flat.commit_version(tag="bench"))
    #: (shards, workers label) -> (graph reader, preference store)
    stacks = {(1, "inline"): (flat_reader, preferences)}
    pool = ShardWorkerPool(POOLED_SHARDS)
    try:
        for n_shards in SHARD_COUNTS[1:]:
            store = ShardedGraphStore(
                os.path.join(root, f"sharded-{n_shards}"),
                num_nodes=NUM_ENTITIES,
                n_shards=n_shards,
            )
            store.put_edges(pairs, weights)
            generation = store.commit_version(tag="bench")
            for workers in [None, pool] if n_shards == POOLED_SHARDS else [None]:
                label = "inline" if workers is None else f"{pool.size} threads"
                stacks[n_shards, label] = (
                    store.snapshot_reader(generation, pool=workers),
                    preferences.partitioned(n_shards, pool=workers),
                )
        # Round-robin passes, fastest pass per stack: a pass is tens of
        # milliseconds, so machine drift must hit every stack alike. The
        # first pass warms page cache, lazy mmaps and numpy dispatch.
        best = dict.fromkeys(stacks, float("inf"))
        _, base_responses = _serve(*stacks[1, "inline"], requests)
        for timed in [False] + [True] * PASSES:
            for key, stack in stacks.items():
                elapsed, responses = _serve(*stack, requests)
                # Byte parity: same expansion, users, order and scores.
                assert responses == base_responses
                if timed:
                    best[key] = min(best[key], elapsed)
    finally:
        pool.close()

    rows = [
        {
            "shards": shards,
            "workers": label,
            "elapsed_s": elapsed,
            "rps": NUM_REQUESTS / elapsed,
            "ratio": best[1, "inline"] / elapsed,
        }
        for (shards, label), elapsed in best.items()
    ]
    ratio = {(r["shards"], r["workers"]): r["ratio"] for r in rows}
    return {
        "mode": "smoke" if SMOKE else "full",
        "num_entities": NUM_ENTITIES,
        "num_users": NUM_USERS,
        "num_edges": NUM_EDGES,
        "dim": DIM,
        "num_requests": NUM_REQUESTS,
        "depth": DEPTH,
        "top_k": TOP_K,
        "per_shard_count": rows,
        "same_kernel_ratio_2x": ratio[2, "inline"],
        "same_kernel_ratio_4x": ratio[4, "inline"],
        "same_kernel_ratio_8x": ratio[8, "inline"],
        "same_kernel_ratio_4x_threads": ratio[POOLED_SHARDS, f"{pool.size} threads"],
    }


def test_shard_scaling_parity(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    rows = [
        [
            r["shards"],
            r["workers"],
            f"{r['elapsed_s'] * 1000:.0f}",
            f"{r['rps']:.0f}",
            f"{r['ratio']:.2f}x",
        ]
        for r in payload["per_shard_count"]
    ]
    text = format_table(
        f"Shard scaling, same kernel — {payload['num_requests']} expand+target "
        f"requests, {payload['num_entities']} entities / {payload['num_users']} "
        f"users ({payload['mode']} mode)",
        ["shards", "workers", "total ms", "req/s", "vs 1 shard"],
        rows,
    )
    text += (
        "\ngate: every request byte-identical to the 1-shard answer at every "
        "shard count (no throughput gate; ratios go to the perf history).\n"
    )
    save_result("shard_scaling", payload, text)
    metrics = {
        name: payload[name]
        for name in (
            "same_kernel_ratio_2x",
            "same_kernel_ratio_4x",
            "same_kernel_ratio_8x",
            "same_kernel_ratio_4x_threads",
        )
    }
    metrics["same_kernel_baseline_rps"] = payload["per_shard_count"][0]["rps"]
    record_history(
        f"shard_scaling_{payload['mode']}",
        metrics,
        directions={name: "higher" for name in metrics},
        config={
            "num_entities": NUM_ENTITIES,
            "num_users": NUM_USERS,
            "num_edges": NUM_EDGES,
            "num_requests": NUM_REQUESTS,
            "depth": DEPTH,
            "top_k": TOP_K,
        },
    )
