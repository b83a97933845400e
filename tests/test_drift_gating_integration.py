"""The activation check, end to end on a frozen clock, with nothing to set.

Two halves mirror the two operational stories, both on a default
:class:`EGLSystem`:

* **healthy cadence** — two seeded ``weekly_refresh`` runs plus two daily
  preference refreshes: every swap produces a :class:`DriftReport` that is
  persisted in the :class:`ArtifactRegistry` (as JSON next to the
  artifacts), surfaced by ``health()`` and served verbatim by the ``/drift``
  telemetry route — and none of them is refused;
* **degenerate publish** — a preference index whose scores collapsed to a
  constant, or a graph with no edges: the hot-swap is refused
  (:class:`DriftGateError`) with the reason, serving continues on the old
  generation and the report is filed as ``gated``.
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
from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.obs.drift import SEVERITY_CRITICAL, SEVERITY_OK
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving import ArtifactRegistry
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
        world, config, artifact_root=tmp_path_factory.mktemp("artifacts"), obs=obs
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
        assert graph_report.severity == SEVERITY_OK
        assert graph_report.reasons == [] and not graph_report.gated
        assert graph_report.metrics["new_edges"] > 0
        assert 0.0 <= graph_report.metrics["edge_jaccard"] <= 1.0
        assert "degree_shift" not in graph_report.metrics

        pref_report = system.registry.drift_report("preferences", 2)
        assert pref_report is not None
        assert pref_report.severity == SEVERITY_OK
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
        reopened = ArtifactRegistry(root=root)
        assert reopened.drift_report("graph", 2) == system.registry.drift_report("graph", 2)

    def test_frozen_clock_stamps_reports_deterministically(self, refreshed_system):
        system, _ = refreshed_system
        report = system.registry.drift_report("graph", 2)
        assert report.computed_at == FROZEN_START + 7 * 86_400

    def test_health_surfaces_latest_drift_verdicts(self, refreshed_system):
        system, _ = refreshed_system
        drift = system.runtime.health()["drift"]
        assert set(drift) == {"graph", "preferences"}
        assert drift["graph"]["new_version"] == 2
        assert drift["graph"]["severity"] == SEVERITY_OK
        assert drift["preferences"]["severity"] == SEVERITY_OK

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
        assert payload["summary"]["graph"]["new_version"] == 2
        served = payload["reports"]["graph"]
        assert served == [system.registry.drift_report("graph", 2).to_dict()]
        assert "alerts" not in service.health().payload


def _degenerate_store(world, sequences):
    """Zero embeddings + no direct-frequency term: constant scores."""
    return PreferenceStore(
        np.zeros((world.num_entities, 6)), direct_weight=0.0
    ).build(sequences, world.num_users)


class TestDegenerateArtifactGating:
    @pytest.fixture()
    def served(self, world, tmp_path):
        """A default system serving one good generation of each kind, and
        the sequences its preference generation was built from."""
        obs = Observability(clock=ManualClock(start=5_000.0))
        system = EGLSystem(world, obs=obs, artifact_root=tmp_path)
        rng = np.random.default_rng(0)
        sequences = {
            u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
            for u in range(60)
        }
        good = PreferenceStore(
            rng.normal(size=(world.num_entities, 6))
        ).build(sequences, world.num_users)
        system.runtime.activate_preferences(good, version=1, tag="daily-1")
        graph = EntityGraph.from_edge_list(
            world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
        )
        system.runtime.activate_graph(
            GraphReasoner(graph, system.pipeline.entity_dict), version=1, tag="week-0"
        )
        return system, sequences

    def test_degenerate_swap_rejected_and_serving_continues(self, served, world):
        system, sequences = served
        before = system.runtime.target(system.runtime.acquire(), [0, 1], k=5)
        with pytest.raises(DriftGateError, match="degenerate_scores"):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2, tag="daily-2"
            )
        # The old generation is still active and still answers.
        assert system.runtime.versions()["preference_version"] == 1
        after = system.runtime.target(system.runtime.acquire(), [0, 1], k=5)
        assert [u.user_id for u in after.users] == [u.user_id for u in before.users]

    def test_rejected_report_filed_as_gated_critical(self, served, world):
        system, sequences = served
        with pytest.raises(DriftGateError):
            system.runtime.activate_preferences(
                _degenerate_store(world, sequences), version=2
            )
        report = system.registry.drift_report("preferences", 2)
        assert report.severity == SEVERITY_CRITICAL
        assert report.gated
        assert report.reasons == ["degenerate_scores"]
        # Persisted on disk even though the swap never happened.
        assert (system.registry.root / "drift-preferences-000002.json").exists()

    def test_rejection_observable_in_events_and_metrics(self, served, world):
        system, sequences = served
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
        assert rejection["reasons"] == ["degenerate_scores"]
        # health() carries the gated verdict.
        drift = system.runtime.health()["drift"]
        assert drift["preferences"]["gated"]
        assert drift["preferences"]["severity"] == SEVERITY_CRITICAL

    def test_empty_graph_rejected_and_previous_graph_answers(self, served, world):
        system, sequences = served
        phrase = world.entities[0].name
        before = system.runtime.expand(system.runtime.acquire(), [phrase], depth=2)
        empty = EntityGraph.from_edge_list(world.num_entities, [], [], [])
        with pytest.raises(DriftGateError, match="empty_graph"):
            system.runtime.activate_graph(
                GraphReasoner(empty, system.pipeline.entity_dict), version=2
            )
        assert system.runtime.versions()["graph_version"] == 1
        after = system.runtime.expand(system.runtime.acquire(), [phrase], depth=2)
        assert [e.entity_id for e in after.entities] == [
            e.entity_id for e in before.entities
        ]
        assert 1 in {e.entity_id for e in after.entities}
        report = system.registry.drift_report("graph", 2)
        assert report.gated and report.reasons == ["empty_graph"]
        assert report.metrics["new_edges"] == 0
        assert system.obs.metrics.get_value(
            "serving_swap_rejections_total", kind="graph"
        ) == 1
