"""Open-loop load harness for the concurrent query front end.

Closed-loop clients (each waits for a response before sending the next)
cannot overload a server — they self-throttle, which is exactly the
coordinated-omission trap. This harness is **open-loop**: arrivals follow
a Poisson process at a fixed offered rate regardless of how the server is
doing, so overload is real and the front end's admission control has to
earn its keep.

Protocol:

1. **Calibrate** — a closed loop with exactly ``max_concurrency`` workers
   measures saturation throughput (capacity); a single serial worker
   measures the uncontended latency profile.
2. **Sweep** — for each multiple of capacity, pre-draw exponential
   inter-arrival gaps (seeded), pace a dispatcher thread through them and
   hand each arrival to a worker pool that calls
   :meth:`~repro.serving.frontend.QueryFrontend.dispatch` directly (the
   transport-free core — HTTP would only add constant noise).
3. **Hot-swap under overload** — a dedicated 2x step runs with a swapper
   thread re-activating the graph artifact with bumped versions; every
   admitted in-flight request must still succeed (the zero-torn-reads
   property, now under genuine overload). It is a separate step so the
   latency gate on the plain 2x step is not confounded by swap cost
   (artifact activation runs drift analysis while holding the GIL).

Gates (relative, so they hold on any machine):

* at 0.5x capacity nothing is shed — the queue absorbs Poisson bursts;
* at 5x capacity the overload is absorbed by explicit sheds (429/503
  envelopes), and *no* request fails with a real error;
* zero failed requests during the mid-sweep hot-swaps;
* full mode only (flaky on loaded CI runners): p99 of admitted requests
  at 2x stays within ``P99_DEGRADATION_MAX`` of the uncontended p99 —
  queueing is bounded, so latency cannot grow without limit.

"Uncontended" means *free of queue contention*: the closed-loop
calibration at exactly ``max_concurrency`` clients, where every request
is admitted instantly and latency is pure execution. That is the floor
admission control defends — GIL sharing between executing requests is
physics the queue cannot help with. To make the 3x tail bound
achievable the harness sets ``queue_timeout`` from the calibration
(about two median service times): a queued request may wait at most
that long, so time-in-system stays a small multiple of execution time
and overload beyond the bound sheds instead of queueing.

``BENCH_LOAD_SMOKE=1`` shortens every step for CI and keeps only the
shed-rate sanity gates + perf-history recording.

The request mix cycles through distinct phrase *pairs* at depth 3 so the
expansion cache cannot turn the workload into a microsecond-scale no-op:
capacity then reflects real k-hop compute, which is what production
overload looks like.
"""

from __future__ import annotations

import gc
import os
import queue
import threading
import time

import numpy as np

from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.serving.frontend import QueryFrontend

from bench_common import (
    bench_trmp_config,
    format_table,
    get_context,
    record_history,
    save_result,
)

SMOKE = os.environ.get("BENCH_LOAD_SMOKE") == "1"

MAX_CONCURRENCY = 4
MAX_QUEUE = 16
QUEUE_TIMEOUT = 0.25  # placeholder until calibration re-derives it
STEP_SECONDS = 0.8 if SMOKE else 2.5
CALIBRATE_SECONDS = 0.5 if SMOKE else 1.5
RATE_MULTIPLES = (0.5, 2.0, 5.0) if SMOKE else (0.25, 0.5, 1.0, 2.0, 5.0)
SWAP_STEP = 2.0  # overload multiple for the dedicated hot-swap step
SWAP_INTERVAL = 0.1
P99_DEGRADATION_MAX = 3.0  # full-mode gate: p99@2x <= 3x uncontended p99
ARRIVAL_SEED = 20230413
# Distinct phrase pairs: enough to keep the expansion cache from turning
# the workload into a microsecond no-op, small enough that the
# calibration pass samples the same payload distribution the sweep
# offers (otherwise the baseline p99 misses the heavy-tail payloads).
MIX_SIZE = 512

SHED_CODES = frozenset(
    {"queue_full", "queue_timeout", "draining", "circuit_open", "deadline_exceeded"}
)


def _prepare() -> tuple[EGLService, QueryFrontend, list[dict]]:
    context = get_context()
    system = EGLSystem(context.world, bench_trmp_config())
    system.weekly_refresh(context.events)
    service = EGLService(system)
    frontend = QueryFrontend(
        service,
        max_concurrency=MAX_CONCURRENCY,
        max_queue=MAX_QUEUE,
        queue_timeout=QUEUE_TIMEOUT,
    )
    names = [e.name for e in context.world.entities]
    rng = np.random.RandomState(ARRIVAL_SEED)
    payloads = []
    for _ in range(MIX_SIZE):
        a, b = rng.choice(len(names), size=2, replace=False)
        payloads.append({"phrases": [names[a], names[b]], "depth": 3})
    return service, frontend, payloads


# ----------------------------------------------------------------------
# Calibration (closed loop)
# ----------------------------------------------------------------------
def _measure_capacity(
    frontend: QueryFrontend, payloads: list[dict]
) -> tuple[float, dict]:
    """Saturation throughput + queue-free latency profile.

    Exactly ``max_concurrency`` closed-loop workers: every request is
    admitted instantly (the queue never forms), so the latencies are pure
    execution under full GIL sharing — the uncontended baseline for the
    tail-degradation gate.
    """
    stop = time.perf_counter() + CALIBRATE_SECONDS
    done = [0] * MAX_CONCURRENCY
    latencies: list[list[float]] = [[] for _ in range(MAX_CONCURRENCY)]

    def worker(wid: int) -> None:
        i = wid
        while time.perf_counter() < stop:
            t0 = time.perf_counter()
            frontend.dispatch("expand", payloads[i % len(payloads)])
            latencies[wid].append(time.perf_counter() - t0)
            done[wid] += 1
            i += MAX_CONCURRENCY

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(MAX_CONCURRENCY)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    capacity = sum(done) / (time.perf_counter() - start)
    arr = np.array([sample for per_worker in latencies for sample in per_worker])
    profile = {
        "p50_ms": float(np.percentile(arr, 50) * 1000),
        "p99_ms": float(np.percentile(arr, 99) * 1000),
        "samples": int(arr.size),
    }
    return capacity, profile


def _measure_serial(frontend: QueryFrontend, payloads: list[dict]) -> dict:
    """Single-client latency profile (reported for context, not gated)."""
    latencies = []
    stop = time.perf_counter() + CALIBRATE_SECONDS
    i = 0
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        frontend.dispatch("expand", payloads[i % len(payloads)])
        latencies.append(time.perf_counter() - t0)
        i += 1
    arr = np.array(latencies)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1000),
        "p99_ms": float(np.percentile(arr, 99) * 1000),
        "samples": len(latencies),
    }


# ----------------------------------------------------------------------
# Open-loop rate step
# ----------------------------------------------------------------------
def _run_step(
    frontend: QueryFrontend,
    payloads: list[dict],
    rate: float,
    seed: int,
    swap_storm: bool = False,
) -> dict:
    """Offer Poisson arrivals at ``rate``/s for STEP_SECONDS; never wait
    for responses before sending the next arrival (open loop)."""
    rng = np.random.RandomState(seed)
    n_arrivals = max(8, int(rate * STEP_SECONDS))
    arrival_at = np.cumsum(rng.exponential(1.0 / rate, size=n_arrivals))

    work: queue.Queue = queue.Queue()
    results: list[tuple[int, str | None, float]] = []
    results_lock = threading.Lock()
    n_workers = MAX_CONCURRENCY + MAX_QUEUE + 8

    def worker() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            t0 = time.perf_counter()
            status, envelope = frontend.dispatch("expand", payloads[item % len(payloads)])
            elapsed = time.perf_counter() - t0
            with results_lock:
                results.append((status, envelope.get("code"), elapsed))

    workers = [threading.Thread(target=worker) for _ in range(n_workers)]
    for t in workers:
        t.start()

    swap_stop = threading.Event()
    swaps_done = [0]
    swapper = None
    if swap_storm:
        runtime = frontend.service.system.runtime
        reasoner = runtime.acquire().require_reasoner()

        def swap_loop() -> None:
            while not swap_stop.wait(SWAP_INTERVAL):
                version = runtime.versions()["graph_version"] + 1
                runtime.activate_graph(reasoner, version=version, tag="load-swap")
                swaps_done[0] += 1

        swapper = threading.Thread(target=swap_loop)
        swapper.start()

    start = time.perf_counter()
    for i, at in enumerate(arrival_at):
        # Pace to the precomputed schedule; if the dispatcher falls behind
        # it sends immediately (burst), preserving the offered *rate*.
        delay = (start + at) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put(i)
    dispatch_elapsed = time.perf_counter() - start

    for _ in workers:
        work.put(None)
    for t in workers:
        t.join()
    if swapper is not None:
        swap_stop.set()
        swapper.join()
    total_elapsed = time.perf_counter() - start

    admitted = [r for r in results if r[0] == 200]
    shed = [r for r in results if r[1] in SHED_CODES]
    failed = [r for r in results if r[0] >= 500 and r[1] not in SHED_CODES]
    admitted_lat = np.array([r[2] for r in admitted]) if admitted else np.array([0.0])
    return {
        "offered_rps": n_arrivals / dispatch_elapsed,
        "target_rps": rate,
        "arrivals": n_arrivals,
        "admitted": len(admitted),
        "shed": len(shed),
        "failed": len(failed),
        "shed_rate": len(shed) / max(1, len(results)),
        "throughput_rps": len(admitted) / total_elapsed,
        "p50_ms": float(np.percentile(admitted_lat, 50) * 1000),
        "p99_ms": float(np.percentile(admitted_lat, 99) * 1000),
        "swaps": swaps_done[0],
    }


def run_bench() -> dict:
    service, frontend, payloads = _prepare()
    # Warm interpreter/allocator paths before calibrating.
    for payload in payloads[:64]:
        frontend.dispatch("expand", payload)

    gc.collect()
    gc.disable()  # timeit-style: collector pauses must not decide the gates
    try:
        capacity, uncontended = _measure_capacity(frontend, payloads)
        serial = _measure_serial(frontend, payloads)
        # Bound the queue wait to ~2 median service times: queueing may
        # then at most triple time-in-system, which is the 3x tail gate.
        # The floor keeps the 0.5x step from shedding on scheduler jitter.
        queue_timeout = max(0.02, 2 * uncontended["p50_ms"] / 1000)
        frontend.admission.queue_timeout = queue_timeout

        steps = []
        for index, multiple in enumerate(RATE_MULTIPLES):
            gc.collect()
            step = _run_step(
                frontend,
                payloads,
                rate=max(1.0, capacity * multiple),
                seed=ARRIVAL_SEED + index,
            )
            step["multiple"] = multiple
            steps.append(step)

        # Dedicated hot-swap step at overload: its gate is zero failed
        # in-flight requests, so swap cost cannot confound the latency
        # gate on the plain 2x step above.
        gc.collect()
        swap_step = _run_step(
            frontend,
            payloads,
            rate=max(1.0, capacity * SWAP_STEP),
            seed=ARRIVAL_SEED + 7919,
            swap_storm=True,
        )
        swap_step["multiple"] = SWAP_STEP
    finally:
        gc.enable()

    drained = frontend.stop(drain_timeout=10.0)
    return {
        "smoke": SMOKE,
        "max_concurrency": MAX_CONCURRENCY,
        "max_queue": MAX_QUEUE,
        "queue_timeout": queue_timeout,
        "step_seconds": STEP_SECONDS,
        "capacity_rps": capacity,
        "uncontended": uncontended,
        "serial": serial,
        "steps": steps,
        "swap_step": swap_step,
        "drained": drained,
        "frontend": frontend.stats(),
    }


def _step(payload: dict, multiple: float) -> dict:
    return next(s for s in payload["steps"] if s["multiple"] == multiple)


def test_load_sweep_sheds_instead_of_failing(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    def row(s: dict, label: str = "") -> list:
        return [
            label or f"{s['multiple']:.2f}x",
            f"{s['offered_rps']:.0f}",
            f"{s['throughput_rps']:.0f}",
            s["admitted"],
            s["shed"],
            f"{s['shed_rate']:.0%}",
            s["failed"],
            f"{s['p50_ms']:.2f}",
            f"{s['p99_ms']:.2f}",
            s["swaps"],
        ]

    rows = [row(s) for s in payload["steps"]]
    rows.append(row(payload["swap_step"], label=f"{SWAP_STEP:.2f}x+swap"))
    text = format_table(
        f"Open-loop load sweep — capacity {payload['capacity_rps']:.0f} rps, "
        f"uncontended (queue-free) p99 {payload['uncontended']['p99_ms']:.2f} ms, "
        f"serial p99 {payload['serial']['p99_ms']:.2f} ms, "
        f"queue timeout {payload['queue_timeout'] * 1000:.0f} ms "
        f"({'smoke' if payload['smoke'] else 'full'} mode)",
        ["rate", "offered/s", "served/s", "ok", "shed", "shed%", "failed",
         "p50 ms", "p99 ms", "swaps"],
        rows,
    )
    save_result("load_frontend", payload, text)

    low = _step(payload, 0.5)
    high = _step(payload, 5.0)
    mid = _step(payload, 2.0)
    swap = payload["swap_step"]
    record_history(
        "load_frontend",
        {
            "capacity_rps": payload["capacity_rps"],
            "uncontended_p99_ms": payload["uncontended"]["p99_ms"],
            "p99_at_2x_ms": mid["p99_ms"],
            "shed_rate_at_5x": high["shed_rate"],
        },
        directions={
            "capacity_rps": "higher",
            "uncontended_p99_ms": "lower",
            "p99_at_2x_ms": "lower",
            "shed_rate_at_5x": "higher",
        },
        config={
            "smoke": SMOKE,
            "max_concurrency": MAX_CONCURRENCY,
            "max_queue": MAX_QUEUE,
            "step_seconds": STEP_SECONDS,
        },
    )

    # Shed-rate sanity: the queue absorbs a half-capacity Poisson stream
    # without shedding; 5x saturation MUST shed, and overload is absorbed
    # by explicit sheds — never by real errors.
    assert low["shed"] == 0, f"shed {low['shed']} requests at 0.5x capacity"
    assert high["shed"] > 0, "5x capacity produced zero sheds"
    for s in payload["steps"] + [swap]:
        assert s["failed"] == 0, f"{s['failed']} real failures at {s['multiple']}x"

    # Hot-swaps under 2x overload happened and broke nothing in flight.
    assert swap["swaps"] > 0
    assert swap["failed"] == 0
    assert payload["drained"] is True

    if not payload["smoke"]:
        # Bounded queueing: p99 of *admitted* requests at 2x saturation
        # stays within P99_DEGRADATION_MAX of the uncontended p99.
        limit = payload["uncontended"]["p99_ms"] * P99_DEGRADATION_MAX
        assert mid["p99_ms"] <= limit, (
            f"p99 at 2x = {mid['p99_ms']:.2f} ms exceeds "
            f"{P99_DEGRADATION_MAX}x uncontended ({limit:.2f} ms)"
        )
