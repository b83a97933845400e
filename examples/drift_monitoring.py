"""Drift monitoring tour: refresh cadence, reports, alerts, and the gate.

Run with::

    python examples/drift_monitoring.py

Takes a few seconds. Walks the quality-monitoring loop end to end:

1. two seeded weekly refreshes — every hot-swap is compared against the
   generation it replaces and the verdict is filed in the registry;
2. the quality signals and alert rules evaluated over those verdicts;
3. a degenerate preference index (all scores identical) pushed with the
   drift gate enabled — the swap is rejected, serving stays on the old
   generation, and the ``critical-drift`` alert fires.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import EGLSystem, World, WorldConfig
from repro.datasets import BehaviorConfig, BehaviorLogGenerator
from repro.errors import DriftGateError
from repro.preference import PreferenceStore


def main() -> None:
    world = World(WorldConfig(num_entities=120, num_users=100, seed=5))
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=9))

    with tempfile.TemporaryDirectory() as root:
        system = EGLSystem(world, artifact_root=root, gate_on_critical_drift=True)

        print("=== 1. Two weekly refreshes, drift verdicts per swap ===")
        for week in range(2):
            system.weekly_refresh(generator.generate_week(week))
        system.daily_preference_refresh(
            generator.generate(start_day=50, num_days=30, rng=77)
        )
        for report in system.registry.drift_reports():
            print(
                f"  {report.kind:<11s} v{report.old_version}->v{report.new_version}  "
                f"severity={report.severity:<8s} reasons={report.reasons or '-'}"
            )
        print("  (the first activation of each kind has no baseline, no report)")

        print("\n=== 2. Quality signals and alert rules ===")
        system.evaluate_alerts()
        for name, value in sorted(system.quality_signals().items()):
            print(f"  {name:<24s} {value:.4f}")
        print(f"  active alerts: {[a['rule'] for a in system.alerts.active()] or 'none'}")

        print("\n=== 3. A degenerate artifact meets the drift gate ===")
        from repro.text.sequence_extractor import UserEntitySequence

        versions = system.runtime.versions()
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(world.num_users)
        }
        bad = PreferenceStore(
            np.zeros((world.num_entities, 8)), direct_weight=0.0
        ).build(sequences, world.num_users)
        try:
            system.runtime.activate_preferences(
                bad, version=versions["preference_version"] + 1, tag="broken-daily"
            )
        except DriftGateError as err:
            print(f"  rejected: {err}")
        print(f"  still serving preference v{system.runtime.versions()['preference_version']}")
        system.evaluate_alerts()
        print(f"  active alerts: {[a['rule'] for a in system.alerts.active()]}")
        print(f"  has_critical: {system.alerts.has_critical()}")
        drift = system.runtime.health()["drift"]
        print(f"  health()['drift']['preferences']: {drift['preferences']}")


if __name__ == "__main__":
    main()
