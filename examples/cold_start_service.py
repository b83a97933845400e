"""Cold start: targeting a service that has *zero* seed users.

The paper's core motivation — new services appear every day and look-alike
systems cannot run without seed users. This example shows:

* the Hubble-style look-alike baseline refusing to run (no seeds);
* EGL targeting the service from nothing but two marketer phrases;
* the quality gap vs random exposure, measured with the conversion model;
* a phrase that is not even in the Entity Dict, resolved semantically.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.errors import ConfigError
from repro.online import target_users_for_phrases
from repro.online.system import EGLSystem
from repro.simulation import ConversionModel, LookAlikeTargeting, default_services


def main(artifact_root: str) -> None:
    world = World(WorldConfig(num_entities=250, num_users=250, seed=7))
    generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=30, seed=11))
    events = generator.generate()

    system = EGLSystem(world, artifact_root=artifact_root)
    system.weekly_refresh(events)
    system.daily_preference_refresh(events)

    service = default_services(world, rng=3)[4]  # the niche service
    print(f"Brand-new service: {service.name} — phrases {service.phrases}")

    print("\n--- Look-alike baseline (needs seed users) ---")
    look_alike = LookAlikeTargeting(world, system.pipeline.entity_dict, events)
    try:
        look_alike.target(service, seed_users=None, k=50)
    except ConfigError as error:
        print(f"FAILS as expected: {error}")

    print("\n--- EGL (no seeds needed) ---")
    view, result = target_users_for_phrases(
        system.runtime.acquire(), service.phrases, depth=2, k=50
    )
    print(f"expanded to {len(view.entities)} entities, "
          f"exported {len(result.users)} users in {result.elapsed_seconds*1000:.1f} ms")

    conversion = ConversionModel(world)
    rng = np.random.default_rng(5)
    egl = conversion.expose(service, np.asarray(result.user_ids), rng)
    random_users = rng.choice(world.num_users, size=len(result.users), replace=False)
    random_outcome = conversion.expose(service, random_users, rng)
    print(f"EGL audience CVR:    {egl.cvr:.3f}")
    print(f"random audience CVR: {random_outcome.cvr:.3f}")

    print("\n--- A phrase outside the Entity Dict ---")
    topic_word = world.topic_words[service.primary_topic][0]
    phrase = f"{topic_word} deals"
    print(f"marketer types {phrase!r} (not an entity name)")
    view = system.runtime.expand(system.runtime.acquire(), [phrase], depth=1)
    print("semantic fallback resolved it near:")
    for entity in view.top(3):
        print(f"  {entity.name} (hop {entity.hop}, score {entity.score:.3f})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="registry-") as root:
        main(root)
