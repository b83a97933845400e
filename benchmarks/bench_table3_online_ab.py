"""Table III — online A/B experiments.

Paper reference (gains of EGL over the rule-based online baseline):

    Service         #exposure  #conversion  CVR     time
    Railway         +0.30%     23.20%       23.00%  3.0 min
    Dicos           +0.50%     16.90%       16.30%  2.0 min
    Cosmetics       -0.20%     19.50%       19.80%  2.5 min
    Dessert         +0.73%     33.60%       32.90%  3.2 min
    Women Football  +0.10%     9.40%        9.20%   2.2 min

We reproduce the comparison: five synthetic services (same mix of conversion
base rates), EGL cold-start targeting vs the rule-based control, a
calibrated conversion simulator, and wall-clock targeting latency. Expected
shape: EGL CVR ≥ control CVR for most services (the paper itself has one
negative service), and EGL targeting is ≥3× faster than the per-campaign
look-alike (Hubble-style) baseline (§IV-D "Efficiency").
"""

from __future__ import annotations

import numpy as np

from repro.simulation import (
    ABTestHarness,
    ConversionModel,
    LookAlikeTargeting,
    RuleBasedTargeting,
    collect_seed_users,
    default_services,
)

from bench_common import bench_system, bench_trmp_config, format_table, get_context, save_result

PAPER_ROWS = {
    "Railway": {"conv": 0.232, "cvr": 0.230},
    "Dicos": {"conv": 0.169, "cvr": 0.163},
    "Cosmetics": {"conv": 0.195, "cvr": 0.198},
    "Dessert": {"conv": 0.336, "cvr": 0.329},
    "Women Football": {"conv": 0.094, "cvr": 0.092},
}


def run_table3() -> dict:
    context = get_context()
    world = context.world

    system = bench_system(world, bench_trmp_config())
    system.weekly_refresh(context.events)
    recent = context.generator.generate(start_day=100, num_days=30, rng=99)
    system.daily_preference_refresh(recent)

    services = default_services(world, rng=3)
    rule = RuleBasedTargeting(world, system.pipeline.entity_dict, recent)
    conversion = ConversionModel(world)
    harness = ABTestHarness(world, system, rule, conversion)
    rows = harness.run(services, audience_size=30, repetitions=20, rng=11)

    # Efficiency comparison vs the seed-based look-alike (Hubble analogue).
    look_alike = LookAlikeTargeting(world, system.pipeline.entity_dict, recent)
    service = services[0]
    seeds = np.unique(
        np.concatenate(
            [
                collect_seed_users(conversion.expose(service, np.arange(world.num_users), rng=r))
                for r in (0, 1, 2)
            ]
        )
    )
    look_alike_time = look_alike.target(service, seeds, 30, rng=1).elapsed_seconds
    egl_time = float(np.mean([r.running_time_seconds for r in rows]))

    return {
        "rows": [vars(r) for r in rows],
        "egl_mean_time_s": egl_time,
        "look_alike_time_s": look_alike_time,
        "speedup": look_alike_time / max(egl_time, 1e-9),
    }


def test_table3_online_ab(benchmark):
    payload = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    rows = payload["rows"]

    table = [
        [
            r["service"],
            f"{r['exposure_delta_pct']:+.2f}%",
            r["egl_conversions"],
            f"{r['egl_cvr']:.3f}",
            f"{r['control_cvr']:.3f}",
            f"{100*(r['egl_cvr']-r['control_cvr'])/max(r['control_cvr'],1e-9):+.1f}%",
            f"{r['running_time_seconds']*1000:.1f}ms",
        ]
        for r in rows
    ]
    text = format_table(
        "Table III — online A/B (EGL vs rule-based control)",
        ["service", "#exposure Δ", "#conv (EGL)", "EGL CVR", "CTL CVR", "CVR uplift", "time"],
        table,
    )
    text += (
        f"\nEfficiency: EGL targeting {payload['egl_mean_time_s']*1000:.1f} ms vs "
        f"look-alike (Hubble-style, per-campaign training) "
        f"{payload['look_alike_time_s']*1000:.1f} ms → {payload['speedup']:.1f}x faster "
        f"(paper: 3x faster than Hubble).\n"
    )
    save_result("table3_online_ab", payload, text)

    # Shape assertions: EGL wins CVR for most services (paper: 4 of 5) and
    # the average uplift is positive.
    wins = sum(r["egl_cvr"] > r["control_cvr"] for r in rows)
    assert wins >= 3, f"EGL won only {wins}/5 services"
    uplifts = [r["egl_cvr"] - r["control_cvr"] for r in rows]
    assert np.mean(uplifts) > 0
    # EGL serves from precomputed preferences: ≥3x faster than per-campaign
    # look-alike training (the paper's Hubble comparison).
    assert payload["speedup"] >= 3.0
