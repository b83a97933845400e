"""The Fig. 6 application case: a marketer promotes a brand-new service.

The paper's walkthrough (L'Oréal on Alipay), scripted on the synthetic
world: search the phrase → inspect the default 2-hop subgraph → choose
entities → export users → read per-entity performance → iterate, feeding
the choices back as high-confidence relations for next week's training.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.eval import AnnotatorPanel
from repro.online.system import EGLSystem
from repro.simulation import ConversionModel, default_services


def main(artifact_root: str) -> None:
    world = World(WorldConfig(num_entities=250, num_users=250, seed=7))
    generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=30, seed=11))
    events = generator.generate()

    system = EGLSystem(world, artifact_root=artifact_root)
    system.weekly_refresh(events)
    system.daily_preference_refresh(events)

    service = default_services(world, rng=3)[2]  # the cosmetics analogue
    phrase = service.phrases[0]
    print(f"A new service arrives: {service.name}")
    print(f"Step 1 — the marketer searches: {phrase!r}\n")

    # One generation answers the whole session: acquire it once.
    runtime = system.runtime
    active = runtime.acquire()
    view = runtime.expand(active, [phrase], depth=2)
    print(f"Step 2 — default 2-hop subgraph ({len(view.entities)} entities):")
    for entity in view.top(10):
        print(
            f"  [{entity.type_name:<13s}] {entity.name:<18s} "
            f"hop {entity.hop}  relevance {entity.score:.3f}  "
            f"path: {' > '.join(entity.path)}"
        )

    chosen = view.top(8)
    print(f"\nStep 3 — the marketer keeps {len(chosen)} entities and exports users")
    result = runtime.target(
        active, [e.entity_id for e in chosen], k=60, weights=[e.score for e in chosen]
    )
    print(f"  exported {len(result.users)} users in {result.elapsed_seconds*1000:.1f} ms")

    print("\nStep 4 — per-entity performance after the campaign:")
    conversion = ConversionModel(world)
    outcome = conversion.expose(service, np.asarray(result.user_ids), rng=5)
    panel = AnnotatorPanel(world)
    seed_id = world.entity_by_name(phrase).entity_id
    for entity in chosen:
        corr = panel.judge_pairs(np.array([[seed_id, entity.entity_id]]))[0]
        print(f"  {entity.name:<18s} panel-correlation {corr:.1f}")
    print(f"  campaign CVR: {outcome.cvr:.3f}")

    print("\nStep 5 — iterate: the kept relations are recorded as "
          "high-confidence supervision for next week's TRMP run")
    system.record_choice(seed_id, [e.entity_id for e in chosen if e.entity_id != seed_id])
    print(f"  {len(system.feedback)} relations queued for the next weekly refresh")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="registry-") as root:
        main(root)
