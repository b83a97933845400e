"""Explainability: why did EGL pick these entities and these users?

Rule-based systems are transparent but coarse; look-alike models are
powerful but opaque. The EGL System claims both — this example prints the
full explanation chain for one targeting request: reasoning paths for every
suggested entity, and per-user rationales grounded in each user's own
behavior history.
"""

from __future__ import annotations

import tempfile

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.online import explain_targeting, target_users_for_phrases
from repro.online.system import EGLSystem


def main(artifact_root: str) -> None:
    world = World(WorldConfig(num_entities=250, num_users=250, seed=7))
    generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=30, seed=11))
    events = generator.generate()

    system = EGLSystem(world, artifact_root=artifact_root)
    system.weekly_refresh(events)
    system.daily_preference_refresh(events)

    phrase = max(world.entities, key=lambda e: e.popularity).name
    print(f"targeting request: {phrase!r}\n")
    active = system.runtime.acquire()  # one generation answers and explains
    view, result = target_users_for_phrases(active, [phrase], depth=2, k=10)

    sequences = system.pipeline.extractor.extract_sequences(events)
    report = explain_targeting(
        view,
        result.users,
        active.preference_store,
        sequences,
        system.pipeline.entity_dict,
        max_users=8,
    )
    print(report)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="registry-") as root:
        main(root)
