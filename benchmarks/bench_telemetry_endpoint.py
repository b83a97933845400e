"""Telemetry endpoint gate: warm /metrics scrape latency.

Prometheus scrapes land on the serving box every few seconds, so
rendering the exposition text must stay far off the request path's
latency budget. This benchmark stands up the real listener
(:class:`~repro.serving.frontend.QueryFrontend`, which serves
``EGLService.telemetry_routes`` to GET) on an ephemeral loopback port,
densifies the registry with realistic
traffic (spans, counters, latency histograms, drift reports), then times
repeated warm GETs of ``/metrics`` end to end — socket, render, transfer.

Acceptance: median warm scrape < 50 ms.
"""

from __future__ import annotations

import time
import urllib.request

import numpy as np

from repro.obs import Observability
from repro.online.api import EGLService
from repro.serving.frontend import QueryFrontend

from bench_common import bench_system, bench_trmp_config, format_table, get_context, save_result

WARMUP_SCRAPES = 5
MEASURED_SCRAPES = 50
MAX_WARM_SCRAPE_MS = 50.0


def _prepare() -> QueryFrontend:
    """A served system behind its (not yet listening) front end, with a
    densely populated metrics registry."""
    context = get_context()
    system = bench_system(context.world, bench_trmp_config(), obs=Observability())
    system.weekly_refresh(context.events)
    recent = context.generator.generate(start_day=100, num_days=30, rng=99)
    system.daily_preference_refresh(recent)
    # Second refresh cycle: produces drift reports and exercises the
    # swap/drift metric families the endpoint must also render.
    system.weekly_refresh(context.generator.generate_week(1))
    system.daily_preference_refresh(
        context.generator.generate(start_day=130, num_days=30, rng=100)
    )
    frontend = QueryFrontend(EGLService(system))
    popular = sorted(context.world.entities, key=lambda e: -e.popularity)
    for i in range(200):
        frontend.dispatch("expand", {"phrases": [popular[i % 8].name], "depth": 2})
    frontend.dispatch(
        "target", {"entity_ids": [popular[0].entity_id, popular[1].entity_id], "k": 20}
    )
    return frontend


def _scrape(url: str) -> tuple[float, int]:
    """One warm GET of /metrics: (seconds, body bytes)."""
    start = time.perf_counter()
    with urllib.request.urlopen(url, timeout=5) as response:
        body = response.read()
    return time.perf_counter() - start, len(body)


def run_bench() -> dict:
    with _prepare() as server:
        url = server.url + "/metrics"
        for _ in range(WARMUP_SCRAPES):
            _scrape(url)
        samples, body_bytes = [], 0
        for _ in range(MEASURED_SCRAPES):
            elapsed, body_bytes = _scrape(url)
            samples.append(elapsed)
        # /health and /drift share the gate budget: scrape each once so a
        # pathologically slow sibling route shows up in the saved result.
        health_s, _ = _scrape(server.url + "/health")
        drift_s, _ = _scrape(server.url + "/drift")

    samples_ms = np.asarray(samples) * 1e3
    return {
        "scrapes": MEASURED_SCRAPES,
        "metrics_body_bytes": body_bytes,
        "scrape_p50_ms": float(np.percentile(samples_ms, 50)),
        "scrape_p99_ms": float(np.percentile(samples_ms, 99)),
        "scrape_max_ms": float(samples_ms.max()),
        "health_ms": health_s * 1e3,
        "drift_ms": drift_s * 1e3,
        "max_warm_scrape_ms": MAX_WARM_SCRAPE_MS,
    }


def test_metrics_scrape_under_gate(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)

    rows = [
        ["/metrics p50", f"{payload['scrape_p50_ms']:.2f} ms"],
        ["/metrics p99", f"{payload['scrape_p99_ms']:.2f} ms"],
        ["/metrics max", f"{payload['scrape_max_ms']:.2f} ms"],
        ["/health", f"{payload['health_ms']:.2f} ms"],
        ["/drift", f"{payload['drift_ms']:.2f} ms"],
        ["exposition size", f"{payload['metrics_body_bytes']} B"],
    ]
    text = format_table(
        "Telemetry endpoint — warm scrape latency over loopback "
        f"({payload['scrapes']} scrapes)",
        ["probe", "value"],
        rows,
    )
    text += (
        f"\ngate: median warm /metrics scrape must stay < "
        f"{payload['max_warm_scrape_ms']:.0f} ms "
        f"(measured {payload['scrape_p50_ms']:.2f} ms).\n"
    )
    save_result("telemetry_endpoint", payload, text)

    assert payload["scrape_p50_ms"] < payload["max_warm_scrape_ms"]
