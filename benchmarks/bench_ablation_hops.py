"""Ablation — expansion depth (relevancy vs diversity trade-off, §II-B).

"The depth of the extension could be flexibly controlled by marketers to
achieve the trade-off between the relevancy and the diversity of the set of
k-hop entities." We quantify that sentence: for depths 1..4, the number of
discovered entities (diversity), the panel ACC of the seed→entity relations
(relevancy) and the mean relevance score.
"""

from __future__ import annotations

import numpy as np


from bench_common import bench_system, bench_trmp_config, format_table, get_context, save_result


def run_hops() -> dict:
    context = get_context()
    system = bench_system(context.world, bench_trmp_config())
    system.weekly_refresh(context.events)

    world = context.world
    rng = np.random.default_rng(3)
    # A handful of reasonably popular seed entities.
    popular = np.argsort(-world.popularity)[:30]
    seeds = rng.choice(popular, size=8, replace=False)

    reasoner = system.runtime.acquire().require_reasoner()
    results = {}
    for depth in (1, 2, 3, 4):
        counts, accs, scores = [], [], []
        for seed in seeds:
            view = reasoner.expand([world.entities[int(seed)].name], depth=depth)
            others = [e for e in view.entities if e.entity_id != int(seed)]
            counts.append(len(others))
            scores.extend(e.score for e in others)
            if others:
                pairs = np.stack(
                    [np.full(len(others), int(seed)), [e.entity_id for e in others]], axis=1
                )
                accs.append(context.panel.evaluate_relations(pairs, sample_size=100, rng=depth).acc)
        results[depth] = {
            "mean_entities": float(np.mean(counts)),
            "mean_acc": float(np.mean(accs)),
            "mean_relevance": float(np.mean(scores)) if scores else 0.0,
        }
    return results


def test_ablation_hops(benchmark):
    results = benchmark.pedantic(run_hops, rounds=1, iterations=1)

    rows = [
        [d, f"{m['mean_entities']:.1f}", f"{m['mean_acc']:.3f}", f"{m['mean_relevance']:.3f}"]
        for d, m in results.items()
    ]
    text = format_table(
        "Ablation — expansion depth (diversity vs relevancy)",
        ["depth", "entities/seed", "relation ACC", "mean relevance"],
        rows,
    )
    save_result("ablation_hops", results, text)

    # Deeper expansion discovers more entities...
    assert results[4]["mean_entities"] >= results[1]["mean_entities"]
    assert results[2]["mean_entities"] >= results[1]["mean_entities"]
    # ...at monotonically decaying relevance scores.
    assert results[4]["mean_relevance"] <= results[1]["mean_relevance"] + 1e-9
    # And hop-1 relations are at least as accurate as hop-4 ones.
    assert results[1]["mean_acc"] >= results[4]["mean_acc"] - 0.02
