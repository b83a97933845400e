"""Drift tour: refresh cadence, filed reports, and the activation check.

Run with::

    python examples/drift_monitoring.py

Takes well under a minute. Walks the activation check end to end:

1. two seeded weekly refreshes and two daily preference refreshes — every
   hot-swap that has a predecessor is measured against the generation it
   replaces, and the report is filed in the registry;
2. a degenerate preference index (all scores identical) is refused, on a
   default system with nothing switched on: serving stays on the previous
   generation and the refusal is filed as ``gated``.

Exits non-zero if the degenerate index is not refused.
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.datasets import BehaviorConfig, BehaviorLogGenerator, World, WorldConfig
from repro.errors import DriftGateError
from repro.online.system import EGLSystem
from repro.preference import PreferenceStore
from repro.text.user_sequence import UserEntitySequence


def main() -> int:
    world = World(WorldConfig(num_entities=120, num_users=100, seed=5))
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=9))

    with tempfile.TemporaryDirectory() as root:
        system = EGLSystem(world, artifact_root=root)

        print("=== 1. Healthy cadence: one report per swap ===")
        for week in range(2):
            system.weekly_refresh(generator.generate_week(week))
        for start_day, rng in ((50, 77), (55, 78)):
            system.daily_preference_refresh(
                generator.generate(start_day=start_day, num_days=30, rng=rng)
            )
        for report in system.registry.drift_reports():
            m = report.metrics
            measured = (
                f"edges {m['old_edges']}->{m['new_edges']} "
                f"jaccard={m['edge_jaccard']:.3f} entity_churn={m['entity_churn']:.3f}"
                if report.kind == "graph"
                else f"topk_overlap={m['topk_overlap_mean']:.3f} "
                f"score_std={m['new_score_std']:.4f}"
            )
            print(
                f"  {report.kind:<11s} v{report.old_version}->v{report.new_version}  "
                f"{report.severity:<8s} {measured}"
            )
        print("  (the first activation of each kind has no baseline, no report)")

        print("\n=== 2. A degenerate preference index meets the activation check ===")
        serving = system.runtime.versions()["preference_version"]
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(world.num_users)
        }
        bad = PreferenceStore(
            np.zeros((world.num_entities, 8)), direct_weight=0.0
        ).build(sequences, world.num_users)
        try:
            system.runtime.activate_preferences(bad, version=serving + 1, tag="broken-daily")
        except DriftGateError as err:
            print(f"  refused: {err}")
        else:
            print("  FAILED: the degenerate index was activated")
            return 1
        still = system.runtime.versions()["preference_version"]
        report = system.registry.drift_report("preferences", serving + 1)
        print(f"  still serving preference v{still}")
        print(f"  filed report: severity={report.severity} gated={report.gated} "
              f"reasons={report.reasons}")
        if still != serving or not report.gated:
            print("  FAILED: serving moved or the refusal was not filed")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
