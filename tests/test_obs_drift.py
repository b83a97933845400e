"""Drift primitives and reports: churn, overlap, the two refusal reasons."""

import json

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.obs.drift import (
    SEVERITY_CRITICAL,
    SEVERITY_OK,
    DriftReport,
    compare_graphs,
    compare_preference_stores,
    default_probe_entities,
    graph_report,
    preference_report,
    topk_overlap,
)
from repro.online.reasoning import GraphReasoner
from repro.serving import ArtifactRegistry, ServingRuntime
from repro.text import EntityDict
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


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

    def test_edge_delta_accounting(self):
        old = _graph(10, [(0, 1), (1, 2)])
        new = _graph(10, [(1, 2), (2, 3), (3, 4)])
        m = compare_graphs(old, new)
        assert m["edges_added"] == 2 and m["edges_removed"] == 1
        assert m["edge_jaccard"] == pytest.approx(1 / 4)
        assert m["edge_churn"] == pytest.approx(3 / 4)

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
    def test_same_store_has_full_overlap(self, world):
        store = _pref_store(world, seed=0)
        probes = default_probe_entities(world.num_entities, 8)
        m = compare_preference_stores(store, store, probes)
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


def _scan_store(kind: str, storage: str, directory) -> PreferenceStore:
    """2,500 users over three scan blocks: random scores, or a store whose
    quantised embeddings and repeated sequences make exact ties."""
    rng = np.random.default_rng(11)
    num_users, num_entities = 2_500, 30
    if kind == "tied":
        embeddings = rng.integers(-1, 2, size=(num_entities, 4)).astype(np.float64)
        sequences = {
            u: UserEntitySequence(u, [u % 3, 5, 5]) for u in range(num_users) if u % 4
        }
        store = PreferenceStore(embeddings, normalize=False)
    else:
        embeddings = rng.normal(size=(num_entities, 8))
        sequences = {
            u: UserEntitySequence(u, rng.integers(0, num_entities, size=6).tolist())
            for u in range(num_users)
            if u % 5
        }
        store = PreferenceStore(embeddings)
    store.build(sequences, num_users)
    if storage == "memmap":
        store = PreferenceStore.load_memmap(store.save_memmap(directory))
    return store


@pytest.mark.parametrize("storage", ["memory", "memmap"])
@pytest.mark.parametrize("kind", ["random", "tied"])
def test_the_streamed_check_has_the_bits_of_per_probe_scoring(kind, storage, tmp_path):
    """One pass over the rows gives every probe the scores, the top-K and
    the pooled spread that scoring each probe on its own gives."""
    store = _scan_store(kind, storage, tmp_path / "new")
    old = _scan_store("random" if kind == "tied" else "tied", "memory", None)
    probes = default_probe_entities(len(store.entity_embeddings), 16)
    streamed = store.score_entities(probes)
    row_of = {u: r for r, u in enumerate(store.user_ids.tolist())}
    pooled = []
    for entity_id, row in zip(probes, streamed):
        # Every row's score as the serving kernel gives it, read off the
        # whole audience.
        alone = np.full(store.num_users, np.nan)
        for user in store.top_users_for_entity(entity_id, store.num_users):
            alone[row_of[user.user_id]] = user.score
        assert row.tobytes() == alone.tobytes()
        top = [u.user_id for u in store.top_users_for_entity(entity_id, 20)]
        assert store.top_user_ids(row, 20).tolist() == top
        pooled.append(alone[np.isfinite(alone)])

    m = compare_preference_stores(old, store, probes)
    assert m["new_score_std"] == float(np.std(np.concatenate(pooled)))
    assert m["topk_overlap_per_probe"] == [
        topk_overlap(
            [u.user_id for u in old.top_users_for_entity(e, 20)],
            [u.user_id for u in store.top_users_for_entity(e, 20)],
        )
        for e in probes
    ]


class TestDriftMonitorClassification:
    """Exactly two findings are critical; everything else is measured."""

    def test_identical_graph_is_ok(self):
        g = _graph(10, [(0, 1), (1, 2), (2, 3)])
        report = graph_report(g, g, 1, 2, computed_at=100.0)
        assert report.severity == SEVERITY_OK
        assert report.reasons == []
        assert report.computed_at == 100.0
        assert not report.gated

    def test_empty_new_graph_is_critical(self):
        old = _graph(10, [(0, 1), (1, 2)])
        report = graph_report(old, _graph(10, []), 1, 2, computed_at=0.0)
        assert report.severity == SEVERITY_CRITICAL
        assert report.reasons == ["empty_graph"]

    def test_total_edge_replacement_is_not_refused(self):
        old = _graph(20, [(i, i + 1) for i in range(0, 10)])
        new = _graph(20, [(i, i + 1) for i in range(10, 19)])
        report = graph_report(old, new, 1, 2, computed_at=0.0)
        assert report.severity == SEVERITY_OK
        assert report.metrics["edge_jaccard"] == 0.0

    def test_zeroed_preferences_are_critical(self, world):
        old = _pref_store(world, seed=0)
        zeroed = _pref_store(world, seed=0, zero_scores=True)
        report = preference_report(old, zeroed, 1, 2, computed_at=0.0)
        assert report.severity == SEVERITY_CRITICAL
        assert report.reasons == ["degenerate_scores"]

    def test_fresh_retrain_of_same_data_stays_below_critical(self, world):
        # The healthy weekly baseline: same behavior, re-drawn embeddings.
        old = _pref_store(world, seed=0)
        new = _pref_store(world, seed=1)
        report = preference_report(old, new, 1, 2, computed_at=0.0)
        assert report.severity == SEVERITY_OK
        assert report.metrics["topk_overlap_mean"] < 1.0


    def test_metrics_emitted_per_report(self, world):
        runtime = ServingRuntime(obs=Observability(clock=ManualClock()))
        entity_dict = EntityDict.from_world(world)
        g = _graph(world.num_entities, [(0, 1)])
        runtime.activate_graph(GraphReasoner(g, entity_dict), version=1)
        assert runtime.obs.metrics.series("drift_reports_total") == []
        runtime.activate_graph(GraphReasoner(g, entity_dict), version=2)
        assert runtime.obs.metrics.get_value(
            "drift_reports_total", kind="graph", severity="ok"
        ) == 1


class TestDriftReportRoundTrip:
    def test_dict_round_trip(self):
        report = DriftReport(
            kind="graph", old_version=1, new_version=2, computed_at=9.0,
            severity=SEVERITY_OK, reasons=[],
            metrics={"edge_churn": 0.7}, gated=False,
        )
        clone = DriftReport.from_dict(report.to_dict())
        assert clone == report
        assert not clone.is_critical

    def test_earlier_format_rehydrates_through_the_registry(self, tmp_path):
        """A report written before the PSI/relation-mix measurements and the
        ``warning`` severity were removed still loads on restart."""
        legacy = {
            "kind": "graph", "old_version": 1, "new_version": 2,
            "computed_at": 9.0, "severity": "warning",
            "reasons": ["edge_churn=0.70"],
            "metrics": {
                "new_edges": 5, "edge_churn": 0.7,
                "degree_shift": {"psi": 0.3, "kl": 0.2, "reference_samples": 10,
                                 "current_samples": 10},
                "relation_mix_old": {"complementary": 1.0},
                "relation_mix_new": {"complementary": 1.0},
                "relation_mix_distance": 0.0,
            },
            "gated": False,
        }
        (tmp_path / "drift-graph-000002.json").write_text(json.dumps(legacy))
        registry = ArtifactRegistry(root=tmp_path)
        report = registry.drift_report("graph", 2)
        assert report is not None and report.to_dict() == legacy
        assert not report.is_critical
        assert registry.quarantined == []
