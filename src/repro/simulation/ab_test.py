"""A/B test harness for the online experiments (Table III).

For each service we target the same number of users with the EGL system and
with the rule-based control, expose both audiences through the calibrated
conversion model, and report the Table III columns: exposure delta,
conversions, CVR (both arms) and the EGL request's running time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.world import World
from repro.errors import ConfigError
from repro.online.system import EGLSystem
from repro.online.targeting import target_users_for_phrases
from repro.rng import ensure_rng
from repro.simulation.baselines import RuleBasedTargeting
from repro.simulation.conversion import ConversionModel, ExposureOutcome
from repro.simulation.services import Service


@dataclass
class ABTestRow:
    """One Table III row."""

    service: str
    exposure_delta_pct: float  # EGL exposure vs control, in %
    egl_conversions: int
    control_conversions: int
    egl_cvr: float
    control_cvr: float
    running_time_seconds: float  # EGL end-to-end targeting latency


class ABTestHarness:
    """Run EGL-vs-rule-based experiments over a list of services."""

    def __init__(
        self,
        world: World,
        system: EGLSystem,
        rule_baseline: RuleBasedTargeting,
        conversion: ConversionModel | None = None,
    ) -> None:
        self.world = world
        self.system = system
        self.rule_baseline = rule_baseline
        self.conversion = conversion or ConversionModel(world)

    def run_service(
        self,
        service: Service,
        audience_size: int = 60,
        depth: int = 2,
        repetitions: int = 5,
        rng: np.random.Generator | int | None = None,
    ) -> ABTestRow:
        """One experiment: same audience size in both arms.

        Conversions are Bernoulli draws, so each arm is exposed
        ``repetitions`` times (independent conversion draws over the same
        audience) and counts are summed — the small-sample analogue of the
        paper's millions of exposures.
        """
        if audience_size < 1:
            raise ConfigError("audience_size must be >= 1")
        if repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        rng = ensure_rng(rng)
        import time

        start = time.perf_counter()
        _, egl_result = target_users_for_phrases(
            self.system.runtime.acquire(), service.phrases, depth=depth, k=audience_size
        )
        egl_time = time.perf_counter() - start

        control = self.rule_baseline.target(service, audience_size, rng=rng)

        egl_exposed = egl_conv = ctl_exposed = ctl_conv = 0
        for _ in range(repetitions):
            egl_outcome = self.conversion.expose(service, np.asarray(egl_result.user_ids), rng)
            control_outcome = self.conversion.expose(service, control.user_ids, rng)
            egl_exposed += egl_outcome.num_exposure
            egl_conv += egl_outcome.num_conversion
            ctl_exposed += control_outcome.num_exposure
            ctl_conv += control_outcome.num_conversion

        delta = 100.0 * (egl_exposed - ctl_exposed) / max(ctl_exposed, 1)
        return ABTestRow(
            service=service.name,
            exposure_delta_pct=delta,
            egl_conversions=egl_conv,
            control_conversions=ctl_conv,
            egl_cvr=egl_conv / max(egl_exposed, 1),
            control_cvr=ctl_conv / max(ctl_exposed, 1),
            running_time_seconds=egl_time,
        )

    def run(
        self,
        services: list[Service],
        audience_size: int = 60,
        depth: int = 2,
        repetitions: int = 5,
        rng: np.random.Generator | int | None = None,
    ) -> list[ABTestRow]:
        rng = ensure_rng(rng)
        return [
            self.run_service(
                s,
                audience_size=audience_size,
                depth=depth,
                repetitions=repetitions,
                rng=rng,
            )
            for s in services
        ]


def collect_seed_users(
    outcome: ExposureOutcome,
) -> np.ndarray:
    """Converted users from a past campaign — seeds for look-alike models."""
    return outcome.exposed_users[outcome.converted]
