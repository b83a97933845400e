"""Drift monitoring + swap gating, end to end on a frozen clock.

Two halves mirror the two operational stories:

* **healthy cadence** — two seeded ``weekly_refresh`` runs plus two daily
  preference refreshes: every swap produces a :class:`DriftReport` that is
  persisted in the :class:`ArtifactRegistry` (as JSON next to the
  artifacts), surfaced by ``health()`` and served verbatim by the ``/drift``
  telemetry route — and none of it fires a critical alert;
* **degenerate publish** — a preference index whose scores collapsed to a
  constant: with ``gate_on_critical_drift`` the hot-swap is rejected
  (:class:`DriftGateError`), serving continues on the old generation, the
  report is filed as ``gated`` and the ``critical-drift`` alert fires.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.datasets import BehaviorConfig, BehaviorLogGenerator
from repro.embeddings import SkipGramConfig
from repro.embeddings.mlm import MLMConfig
from repro.embeddings.semantic import SemanticEncoderConfig
from repro.errors import DriftGateError
from repro.obs import ManualClock, Observability
from repro.obs.drift import SEVERITY_CRITICAL
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.preference.store import PreferenceStore
from repro.serving.frontend import QueryFrontend
from repro.text.sequence_extractor import UserEntitySequence
from repro.trmp import ALPCConfig, EnsembleConfig, TRMPConfig

FROZEN_START = 1_700_000_000.0


@pytest.fixture(scope="module")
def refreshed_system(world, tmp_path_factory):
    """Two weekly + two daily refreshes under a frozen ManualClock."""
    config = TRMPConfig(
        skipgram=SkipGramConfig(epochs=8, seed=2),
        semantic=SemanticEncoderConfig(mlm=MLMConfig(epochs=4, seed=3)),
        alpc=ALPCConfig(epochs=20, seed=1),
        ensemble=EnsembleConfig(epochs=12, seed=0),
    )
    obs = Observability(clock=ManualClock(start=FROZEN_START))
    system = EGLSystem(
        world, config,
        artifact_root=tmp_path_factory.mktemp("artifacts"),
        obs=obs,
        gate_on_critical_drift=True,
    )
    generator = BehaviorLogGenerator(world, BehaviorConfig(seed=5))
    reports = []
    for week in range(2):
        reports.append(system.weekly_refresh(generator.generate_week(week)))
        obs.clock.advance(7 * 86_400)
    system.daily_preference_refresh(generator.generate(start_day=50, num_days=30, rng=77))
    obs.clock.advance(86_400)
    system.daily_preference_refresh(generator.generate(start_day=55, num_days=30, rng=78))
    return system, reports


class TestHealthyCadence:
    def test_refreshes_swap_without_gating(self, refreshed_system):
        system, reports = refreshed_system
        assert [r.graph_version for r in reports] == [1, 2]
        assert not any(r.swap_rejected for r in reports)
        versions = system.runtime.versions()
        assert versions["graph_version"] == 2
        assert versions["preference_version"] == 2

    def test_drift_reports_filed_per_transition(self, refreshed_system):
        system, _ = refreshed_system
        graph_report = system.registry.drift_report("graph", 2)
        assert graph_report is not None
        assert graph_report.old_version == 1 and graph_report.new_version == 2
        assert graph_report.severity != SEVERITY_CRITICAL
        assert not graph_report.gated
        assert graph_report.metrics["new_edges"] > 0
        assert graph_report.metrics["degree_shift"]["psi"] is not None

        pref_report = system.registry.drift_report("preferences", 2)
        assert pref_report is not None
        assert not pref_report.metrics["degenerate_scores"]
        assert pref_report.metrics["topk_overlap_mean"] is not None

    def test_reports_persisted_as_json_and_rehydrated(self, refreshed_system):
        system, _ = refreshed_system
        root = system.registry.root
        files = sorted(p.name for p in root.glob("drift-*.json"))
        assert files == ["drift-graph-000002.json", "drift-preferences-000002.json"]
        on_disk = json.loads((root / "drift-graph-000002.json").read_text())
        assert on_disk == system.registry.drift_report("graph", 2).to_dict()

        # A fresh registry over the same root sees the filed reports.
        from repro.serving import ArtifactRegistry

        reopened = ArtifactRegistry(root=root)
        assert reopened.drift_report("graph", 2) == system.registry.drift_report("graph", 2)

    def test_frozen_clock_stamps_reports_deterministically(self, refreshed_system):
        system, _ = refreshed_system
        report = system.registry.drift_report("graph", 2)
        assert report.computed_at == FROZEN_START + 7 * 86_400

    def test_health_surfaces_latest_drift_verdicts(self, refreshed_system):
        system, _ = refreshed_system
        drift = system.runtime.health()["drift"]
        assert drift["monitored"] and drift["gate_on_critical_drift"]
        assert drift["graph"]["new_version"] == 2
        assert drift["graph"]["severity"] != SEVERITY_CRITICAL
        assert drift["preferences"]["severity"] != SEVERITY_CRITICAL

    def test_no_critical_alerts_on_healthy_refreshes(self, refreshed_system):
        system, _ = refreshed_system
        system.evaluate_alerts()
        assert not system.alerts.has_critical()
        signals = system.quality_signals()
        assert signals["drift_critical"] == 0.0
        assert "drift_graph_psi" in signals and "drift_preferences_psi" in signals

    def test_drift_metrics_counted(self, refreshed_system):
        system, _ = refreshed_system
        metrics = system.obs.metrics
        total = sum(
            series.value
            for labels, series in metrics.series("drift_reports_total")
            if labels["kind"] == "graph"
        )
        assert total == 1  # v1 -> v2; the first activation has no baseline
        assert metrics.get_value("serving_swap_rejections_total", kind="graph") == 0

    def test_drift_endpoint_serves_persisted_reports(self, refreshed_system):
        system, _ = refreshed_system
        service = EGLService(system)
        with QueryFrontend(service) as server:
            with urllib.request.urlopen(server.url + "/drift", timeout=5) as response:
                payload = json.loads(response.read())
            with urllib.request.urlopen(server.url + "/alerts", timeout=5) as response:
                alerts = json.loads(response.read())
        assert payload["summary"]["graph"]["new_version"] == 2
        served = payload["reports"]["graph"]
        assert served == [system.registry.drift_report("graph", 2).to_dict()]
        assert alerts["active"] == []
        assert alerts["signals"]["drift_critical"] == 0.0


def _degenerate_store(world, sequences):
    """Zero embeddings + no direct-frequency term: constant scores."""
    return PreferenceStore(
        np.zeros((world.num_entities, 6)), direct_weight=0.0
    ).build(sequences, world.num_users)


class TestDegenerateArtifactGating:
    @pytest.fixture()
    def gated_system(self, world, tmp_path):
        obs = Observability(clock=ManualClock(start=5_000.0))
        system = EGLSystem(
            world, obs=obs, artifact_root=tmp_path, gate_on_critical_drift=True
        )
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(60)
        }
        good = PreferenceStore(
            rng.normal(size=(world.num_entities, 6))
        ).build(sequences, world.num_users)
        system.runtime.activate_preferences(good, version=1, tag="daily-1")
        return system, sequences

    def test_degenerate_swap_rejected_and_serving_continues(self, gated_system, world):
        system, sequences = gated_system
        before = system.target_users([0, 1], k=5)
        with pytest.raises(DriftGateError, match="degenerate_scores"):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2, tag="daily-2"
            )
        # The old generation is still active and still answers.
        assert system.runtime.versions()["preference_version"] == 1
        after = system.target_users([0, 1], k=5)
        assert [u.user_id for u in after.users] == [u.user_id for u in before.users]

    def test_rejected_report_filed_as_gated_critical(self, gated_system, world):
        system, sequences = gated_system
        with pytest.raises(DriftGateError):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2
            )
        report = system.registry.drift_report("preferences", 2)
        assert report.severity == SEVERITY_CRITICAL
        assert report.gated
        assert "degenerate_scores" in report.reasons
        # Persisted on disk even though the swap never happened.
        assert (system.registry.root / "drift-preferences-000002.json").exists()

    def test_critical_drift_alert_fires(self, gated_system, world):
        system, sequences = gated_system
        with pytest.raises(DriftGateError):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2
            )
        firing = {a["rule"] for a in system.alerts.active()}
        assert "critical-drift" in firing
        assert system.alerts.has_critical()
        assert system.quality_signals()["drift_critical"] == 1.0

    def test_rejection_observable_in_events_and_metrics(self, gated_system, world):
        system, sequences = gated_system
        with pytest.raises(DriftGateError):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2
            )
        metrics = system.obs.metrics
        assert metrics.get_value(
            "serving_swap_rejections_total", kind="preferences"
        ) == 1
        rejection = system.runtime.swap_events()[-1]
        assert rejection["rejected"] and rejection["kind"] == "preferences"
        assert rejection["new_version"] == 2
        # health() carries the gated verdict.
        drift = system.runtime.health()["drift"]
        assert drift["preferences"]["gated"]
        assert drift["preferences"]["severity"] == SEVERITY_CRITICAL

    def test_gate_off_records_but_swaps(self, world, tmp_path):
        obs = Observability(clock=ManualClock(start=5_000.0))
        system = EGLSystem(
            world, obs=obs, artifact_root=tmp_path, gate_on_critical_drift=False
        )
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(60)
        }
        good = PreferenceStore(
            rng.normal(size=(world.num_entities, 6))
        ).build(sequences, world.num_users)
        system.runtime.activate_preferences(good, version=1)
        system.runtime.activate_preferences(
            _degenerate_store(world, sequences), version=2
        )
        # Monitor-only mode: the bad artifact IS active, but the critical
        # report and alert still exist for the operator.
        assert system.runtime.versions()["preference_version"] == 2
        report = system.registry.drift_report("preferences", 2)
        assert report.severity == SEVERITY_CRITICAL and not report.gated
        assert system.alerts.has_critical()
