"""Fig. 6 / §IV-E — the marketer application case, with latency.

The paper's case: a marketer brings a brand-new service (L'Oréal), searches
its name, inspects the default two-hop subgraph, selects entities, exports
target users. "The whole user targeting process only needs 2-4 minutes on
average" at Alipay scale; here we measure the same end-to-end request on the
reproduction and regenerate the per-entity performance readout (step 4).
"""

from __future__ import annotations

import time

import numpy as np

from repro.simulation import ConversionModel, default_services

from bench_common import bench_system, bench_trmp_config, format_table, get_context, save_result


def _prepare_system():
    context = get_context()
    system = bench_system(context.world, bench_trmp_config())
    system.weekly_refresh(context.events)
    recent = context.generator.generate(start_day=100, num_days=30, rng=99)
    system.daily_preference_refresh(recent)
    return context, system


def run_case() -> dict:
    context, system = _prepare_system()
    world = context.world
    service = default_services(world, rng=3)[2]  # the cosmetics analogue
    conversion = ConversionModel(world)

    # Step 1-2: search the phrase, show the default two-hop subgraph. One
    # generation answers the whole session.
    runtime = system.runtime
    active = runtime.acquire()
    start = time.perf_counter()
    view = runtime.expand(active, service.phrases[:1], depth=2)
    expand_time = time.perf_counter() - start

    # Step 3: the marketer keeps the top suggestions and exports users.
    chosen = view.entities[:10]
    start = time.perf_counter()
    result = runtime.target(
        active, [e.entity_id for e in chosen], k=60, weights=[e.score for e in chosen]
    )
    export_time = time.perf_counter() - start

    # Step 4: per-entity performance of the exported users.
    outcome = conversion.expose(service, np.asarray(result.user_ids), rng=5)
    per_entity = []
    for entity in chosen[:6]:
        scores = context.panel.judge_pairs(
            np.stack(
                [
                    np.full(1, world.entity_by_name(service.phrases[0]).entity_id),
                    [entity.entity_id],
                ],
                axis=1,
            )
        )
        per_entity.append(
            {
                "entity": entity.name,
                "hop": entity.hop,
                "relevance": entity.score,
                "panel_correlation": float(scores[0]),
            }
        )

    return {
        "service": service.name,
        "phrase": service.phrases[0],
        "subgraph_entities": len(view.entities),
        "expand_time_s": expand_time,
        "export_time_s": export_time,
        "total_time_s": expand_time + export_time,
        "audience": len(result.users),
        "campaign_cvr": outcome.cvr,
        "per_entity": per_entity,
    }


def test_fig6_marketer_case(benchmark):
    payload = benchmark.pedantic(run_case, rounds=1, iterations=1)

    rows = [
        [p["entity"], p["hop"], f"{p['relevance']:.3f}", f"{p['panel_correlation']:.1f}"]
        for p in payload["per_entity"]
    ]
    text = format_table(
        f"Fig. 6 — marketer case for {payload['service']} (phrase: {payload['phrase']!r})",
        ["suggested entity", "hop", "relevance", "panel corr"],
        rows,
    )
    text += (
        f"\n2-hop subgraph: {payload['subgraph_entities']} entities; "
        f"expand {payload['expand_time_s']*1000:.1f} ms + export "
        f"{payload['export_time_s']*1000:.1f} ms = {payload['total_time_s']*1000:.1f} ms "
        f"end-to-end (paper: 2-4 min at Alipay scale).\n"
        f"Exported audience: {payload['audience']} users, campaign CVR {payload['campaign_cvr']:.3f}.\n"
    )
    save_result("fig6_marketer_case", payload, text)

    assert payload["subgraph_entities"] >= 5
    assert payload["audience"] == 60
    # The whole interactive flow must be far below the paper's 2-4 minutes.
    assert payload["total_time_s"] < 10.0
    # The suggested entities should be judged related by the panel on average.
    corr = [p["panel_correlation"] for p in payload["per_entity"]]
    assert np.mean(corr) >= 0.5
