"""Drift primitives and the DriftMonitor: PSI/KL, churn, classification."""

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import ManualClock, MetricsRegistry
from repro.obs.drift import (
    SEVERITY_CRITICAL,
    SEVERITY_OK,
    SEVERITY_WARNING,
    DriftConfig,
    DriftMonitor,
    DriftReport,
    compare_graphs,
    compare_preference_stores,
    default_probe_entities,
    distribution_shift,
    topk_overlap,
)
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


class TestDistributionShift:
    def test_identical_samples_have_near_zero_psi(self, rng):
        values = rng.normal(size=2000)
        shift = distribution_shift(values, values)
        assert shift["psi"] == pytest.approx(0.0, abs=1e-9)
        assert shift["kl"] == pytest.approx(0.0, abs=1e-9)
        assert shift["reference_samples"] == 2000

    def test_same_distribution_fresh_draw_stays_small(self, rng):
        a = rng.normal(size=5000)
        b = rng.normal(size=5000)
        shift = distribution_shift(a, b)
        assert shift["psi"] < 0.1  # "stable" by the PSI convention

    def test_mean_shift_is_large(self, rng):
        a = rng.normal(size=2000)
        b = rng.normal(loc=3.0, size=2000)
        assert distribution_shift(a, b)["psi"] > 1.0

    def test_collapse_to_constant_is_huge(self, rng):
        a = rng.normal(size=2000)
        b = np.zeros(2000)
        assert distribution_shift(a, b)["psi"] > 2.0

    def test_empty_side_reports_none_not_zero(self, rng):
        shift = distribution_shift(rng.normal(size=10), [])
        assert shift["psi"] is None and shift["kl"] is None
        assert shift["current_samples"] == 0

    def test_non_finite_samples_are_dropped(self, rng):
        a = rng.normal(size=500)
        b = np.concatenate([a, [np.inf, -np.inf, np.nan]])
        shift = distribution_shift(a, b)
        assert shift["current_samples"] == 500
        assert shift["psi"] == pytest.approx(0.0, abs=1e-9)

    def test_psi_is_symmetric_and_kl_is_not_negative(self, rng):
        a = rng.normal(size=2000)
        b = rng.normal(loc=0.5, size=2000)
        forward = distribution_shift(a, b)
        assert forward["psi"] >= 0 and forward["kl"] >= 0


class TestTopkOverlap:
    def test_identical_lists(self):
        assert topk_overlap([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint_lists(self):
        assert topk_overlap([1, 2], [3, 4]) == 0.0

    def test_normalised_by_shorter_list(self):
        # Every id of the short list is present: full overlap despite the
        # length mismatch.
        assert topk_overlap([1, 2], [1, 2, 3, 4]) == 1.0

    def test_both_empty_is_full_overlap(self):
        assert topk_overlap([], []) == 1.0

    def test_one_empty_is_zero(self):
        assert topk_overlap([1], []) == 0.0


def _graph(num_nodes, pairs, weights=None, relations=None):
    weights = weights or [0.9] * len(pairs)
    relations = relations or [0] * len(pairs)
    return EntityGraph.from_edge_list(num_nodes, pairs, weights, relations)


class TestCompareGraphs:
    def test_identical_graph_has_no_churn(self):
        g = _graph(10, [(0, 1), (1, 2), (2, 3)])
        m = compare_graphs(g, g)
        assert m["edge_churn"] == 0.0
        assert m["edge_jaccard"] == 1.0
        assert m["edge_ratio"] == 1.0
        assert m["entities_added"] == m["entities_removed"] == 0
        assert m["relation_mix_distance"] == 0.0

    def test_edge_delta_accounting(self):
        old = _graph(10, [(0, 1), (1, 2)])
        new = _graph(10, [(1, 2), (2, 3), (3, 4)])
        m = compare_graphs(old, new)
        assert m["edges_added"] == 2 and m["edges_removed"] == 1
        assert m["edge_jaccard"] == pytest.approx(1 / 4)
        assert m["edge_churn"] == pytest.approx(3 / 4)

    def test_relation_mix_distance(self):
        old = _graph(6, [(0, 1), (1, 2)], relations=[0, 0])
        new = _graph(6, [(0, 1), (1, 2)], relations=[1, 1])
        m = compare_graphs(old, new)
        assert m["relation_mix_distance"] == pytest.approx(1.0)

    def test_empty_old_graph_has_no_edge_ratio(self):
        old = _graph(5, [])
        new = _graph(5, [(0, 1)])
        assert compare_graphs(old, new)["edge_ratio"] is None


def _pref_store(world, seed, zero_scores=False):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(60)
    }
    if zero_scores:
        # The degenerate publish: zero embeddings *and* no direct-frequency
        # term, so every covered user scores exactly 0 for every entity.
        store = PreferenceStore(np.zeros_like(embeddings), direct_weight=0.0)
    else:
        store = PreferenceStore(embeddings)
    return store.build(sequences, world.num_users)


class TestComparePreferenceStores:
    def test_same_store_has_zero_psi_and_full_overlap(self, world):
        store = _pref_store(world, seed=0)
        probes = default_probe_entities(world.num_entities, 8)
        m = compare_preference_stores(store, store, probes)
        assert m["score_shift"]["psi"] == pytest.approx(0.0, abs=1e-9)
        assert m["topk_overlap_mean"] == 1.0
        assert not m["degenerate_scores"]

    def test_zeroed_store_is_degenerate(self, world):
        old = _pref_store(world, seed=0)
        zeroed = _pref_store(world, seed=0, zero_scores=True)
        probes = default_probe_entities(world.num_entities, 8)
        m = compare_preference_stores(old, zeroed, probes)
        assert m["degenerate_scores"]
        assert m["new_score_std"] == pytest.approx(0.0, abs=1e-12)

    def test_probe_entities_deterministic_and_in_range(self):
        probes = default_probe_entities(100, 10)
        assert probes == default_probe_entities(100, 10)
        assert probes[0] == 0 and probes[-1] == 99
        assert default_probe_entities(3, 10) == [0, 1, 2]


class TestDriftMonitorClassification:
    @pytest.fixture()
    def monitor(self):
        return DriftMonitor(
            config=DriftConfig(), metrics=MetricsRegistry(),
            clock=ManualClock(start=100.0),
        )

    def test_identical_graph_is_ok(self, monitor):
        g = _graph(10, [(0, 1), (1, 2), (2, 3)])
        report = monitor.graph_report(g, g, 1, 2)
        assert report.severity == SEVERITY_OK
        assert report.reasons == []
        assert report.computed_at == 100.0
        assert not report.gated

    def test_empty_new_graph_is_critical(self, monitor):
        old = _graph(10, [(0, 1), (1, 2)])
        report = monitor.graph_report(old, _graph(10, []), 1, 2)
        assert report.severity == SEVERITY_CRITICAL
        assert "empty_graph" in report.reasons

    def test_total_edge_replacement_is_critical(self, monitor):
        old = _graph(20, [(i, i + 1) for i in range(0, 10)])
        new = _graph(20, [(i, i + 1) for i in range(10, 19)])
        report = monitor.graph_report(old, new, 1, 2)
        assert report.severity == SEVERITY_CRITICAL

    def test_moderate_churn_is_warning(self, monitor):
        old = _graph(20, [(i, i + 1) for i in range(10)])
        # keep 3 of 10 edges, add 7 new ones: churn ~0.82 — above the 0.6
        # warning bar, below the 0.98 critical bar.
        new = _graph(
            20, [(0, 1), (1, 2), (2, 3)] + [(i, i + 2) for i in range(10, 17)]
        )
        report = monitor.graph_report(old, new, 1, 2)
        assert report.severity == SEVERITY_WARNING
        assert any(r.startswith("edge_churn") for r in report.reasons)

    def test_zeroed_preferences_are_critical(self, monitor, world):
        old = _pref_store(world, seed=0)
        zeroed = _pref_store(world, seed=0, zero_scores=True)
        report = monitor.preference_report(old, zeroed, 1, 2)
        assert report.severity == SEVERITY_CRITICAL
        assert "degenerate_scores" in report.reasons

    def test_fresh_retrain_of_same_data_stays_below_critical(self, monitor, world):
        # The healthy weekly baseline: same behavior, re-drawn embeddings.
        old = _pref_store(world, seed=0)
        new = _pref_store(world, seed=1)
        report = monitor.preference_report(old, new, 1, 2)
        assert report.severity != SEVERITY_CRITICAL

    def test_metrics_emitted_per_report(self, world):
        metrics = MetricsRegistry()
        monitor = DriftMonitor(metrics=metrics, clock=ManualClock())
        g = _graph(10, [(0, 1)])
        monitor.graph_report(g, g, 1, 2)
        assert metrics.get_value(
            "drift_reports_total", kind="graph", severity="ok"
        ) == 1
        assert metrics.get_value("drift_last_psi", kind="graph") is not None


class TestDriftReportRoundTrip:
    def test_dict_round_trip(self):
        report = DriftReport(
            kind="graph", old_version=1, new_version=2, computed_at=9.0,
            severity=SEVERITY_WARNING, reasons=["edge_churn=0.70"],
            metrics={"edge_churn": 0.7}, gated=False,
        )
        clone = DriftReport.from_dict(report.to_dict())
        assert clone == report
        assert not clone.is_critical
