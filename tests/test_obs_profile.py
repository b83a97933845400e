"""Phase profiler: deterministic timing, attribution, resource accounting."""

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.graph.csr import CSRGraph
from repro.graph.khop import k_hop_expansion
from repro.obs import ManualClock
from repro.obs.context import RequestContext, bind_context, unbind_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    NOOP_PROFILER,
    PhaseProfiler,
    ResourceAccountant,
    current_profiler,
    mmap_open_counts,
    record_mmap_open,
)


@pytest.fixture()
def clock():
    return ManualClock(start=1_000.0)


class TestPhaseAccumulation:
    def test_nested_phases_accumulate_per_stack_path(self, clock):
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("root"):
            clock.advance(0.1)
            with profiler.phase("child"):
                clock.advance(0.3)
            with profiler.phase("child"):
                clock.advance(0.2)
        report = profiler.report()
        by_phase = {row["phase"]: row for row in report["phases"]}
        assert by_phase["root"]["total_s"] == pytest.approx(0.6)
        assert by_phase["root"]["self_s"] == pytest.approx(0.1)
        assert by_phase["root;child"]["total_s"] == pytest.approx(0.5)
        assert by_phase["root;child"]["count"] == 2
        assert report["roots"]["root"]["attributed"] == pytest.approx(0.5 / 0.6)

    def test_same_child_name_under_different_parents_stays_distinct(self, clock):
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("a"):
            with profiler.phase("step"):
                clock.advance(0.1)
        with profiler.phase("b"):
            with profiler.phase("step"):
                clock.advance(0.2)
        by_phase = {row["phase"]: row for row in profiler.report()["phases"]}
        assert by_phase["a;step"]["total_s"] == pytest.approx(0.1)
        assert by_phase["b;step"]["total_s"] == pytest.approx(0.2)

    def test_leaf_root_attribution_is_none(self, clock):
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("leaf"):
            clock.advance(0.1)
        assert profiler.report()["roots"]["leaf"]["attributed"] is None

    def test_reset_clears_totals(self, clock):
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("x"):
            clock.advance(0.1)
        profiler.reset()
        assert profiler.report()["phases"] == []

    def test_collapsed_stack_lines(self, clock):
        profiler = PhaseProfiler(clock=clock)
        with profiler.phase("root"):
            clock.advance(0.001)
            with profiler.phase("child"):
                clock.advance(0.002)
        lines = profiler.collapsed().splitlines()
        assert "root 1000" in lines
        assert "root;child 2000" in lines

    def test_disabled_profiler_hands_out_shared_noop(self, clock):
        profiler = PhaseProfiler(clock=clock, enabled=False)
        first = profiler.phase("x")
        second = profiler.phase("y")
        assert first is second
        with first:
            clock.advance(1.0)
        assert profiler.report()["phases"] == []


class TestAmbientProfiler:
    def test_outside_a_request_kernels_get_the_noop(self):
        assert current_profiler() is NOOP_PROFILER

    def test_request_context_carries_the_profiler(self, clock):
        profiler = PhaseProfiler(clock=clock)
        ctx = RequestContext(profiler=profiler)
        token = bind_context(ctx)
        try:
            assert current_profiler() is profiler
        finally:
            unbind_context(token)

    def test_context_without_profiler_falls_back_to_noop(self):
        token = bind_context(RequestContext())
        try:
            assert current_profiler() is NOOP_PROFILER
        finally:
            unbind_context(token)


def _chain_graph(num_nodes=600, fanout=4):
    """A layered graph big enough that a cold expansion does real work."""
    edges, weights, relations = [], [], []
    for u in range(num_nodes - fanout):
        for j in range(1, fanout + 1):
            edges.append((u, u + j))
            weights.append(0.5 + (j % 3) * 0.1)
            relations.append(0)
    return EntityGraph.from_edge_list(num_nodes, edges, weights, relations)


class TestExpansionAttribution:
    def test_cold_csr_expansion_is_90pct_attributed(self):
        """Acceptance: ≥90% of a cold CSR expansion's wall time lands in
        named child phases of ``expand.csr`` (real clock, real work)."""
        graph = _chain_graph()
        snapshot = CSRGraph.from_entity_graph(graph)
        profiler = PhaseProfiler()  # real clock: attribution needs real time
        ctx = RequestContext(profiler=profiler)
        token = bind_context(ctx)
        try:
            # Several cold expansions accumulate into one profile so a
            # single scheduler hiccup can't decide the ratio.
            for _ in range(5):
                k_hop_expansion(
                    snapshot, seeds=[0, 7, 50], depth=3, max_neighbors_per_node=25
                )
        finally:
            unbind_context(token)
        report = profiler.report()
        root = report["roots"]["expand.csr"]
        assert root["count"] == 5
        assert root["attributed"] is not None
        assert root["attributed"] >= 0.90
        phases = {row["phase"] for row in report["phases"]}
        assert "expand.csr;seed_init" in phases
        assert "expand.csr;hop.gather" in phases
        assert "expand.csr;collect" in phases

    def test_unprofiled_expansion_results_are_identical(self):
        graph = _chain_graph(num_nodes=200)
        snapshot = CSRGraph.from_entity_graph(graph)
        plain = k_hop_expansion(snapshot, seeds=[0, 3], depth=2)
        token = bind_context(RequestContext(profiler=PhaseProfiler()))
        try:
            profiled = k_hop_expansion(snapshot, seeds=[0, 3], depth=2)
        finally:
            unbind_context(token)
        assert profiled.hops == plain.hops
        assert profiled.scores == plain.scores
        assert profiled.parents == plain.parents


class TestResourceAccounting:
    def test_mmap_open_counter_deltas(self):
        before = mmap_open_counts().get("testkind", 0)
        record_mmap_open("testkind")
        record_mmap_open("testkind")
        assert mmap_open_counts()["testkind"] == before + 2

    def test_usage_without_registry_reports_only_mmap_opens(self):
        accountant = ResourceAccountant(metrics=None)
        usage = accountant.usage()
        assert usage["artifacts"] == {}
        assert isinstance(usage["mmap_opens"], dict)

    def test_usage_walks_registry_records(self, tmp_path):
        artifact = tmp_path / "gen-1"
        artifact.mkdir()
        (artifact / "data.npy").write_bytes(b"x" * 100)

        class _Record:
            path = str(artifact)

        class _Registry:
            def records(self, kind):
                return [_Record()] if kind == "graph" else []

        accountant = ResourceAccountant(metrics=None, registry=_Registry())
        usage = accountant.usage()
        assert usage["artifacts"]["graph"] == {"generations": 1, "disk_bytes": 100}
        assert usage["artifacts"]["preferences"] == {"generations": 0, "disk_bytes": 0}

    def test_store_generations_are_each_counted_once(self, tmp_path):
        """A store-frozen record points at its own immutable ``csr-NNNNNN/``
        directory, not at the (growing, shared) store root: a second commit
        adds exactly its own bytes, also after the first walk was cached."""
        from repro.graph import GraphStore
        from repro.serving import ArtifactRegistry

        def tree_bytes(path):
            return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())

        store = GraphStore(tmp_path / "store", num_nodes=20)
        registry = ArtifactRegistry(tmp_path / "registry")
        accountant = ResourceAccountant(metrics=None, registry=registry)
        store.put_edges([(0, 1), (1, 2)], [0.9, 0.8])
        v1 = store.commit_version()
        registry.publish_graph(store)
        first = accountant.usage()["artifacts"]["graph"]
        assert first == {"generations": 1, "disk_bytes": tree_bytes(store.csr_path(v1))}

        store.put_edges([(2, 3), (3, 4), (4, 5)], [0.7, 0.6, 0.5])
        v2 = store.commit_version()
        registry.publish_graph(store)
        assert accountant.usage()["artifacts"]["graph"] == {
            "generations": 2,
            "disk_bytes": first["disk_bytes"] + tree_bytes(store.csr_path(v2)),
        }

    def test_collector_exports_gauges_through_registry(self, tmp_path):
        artifact = tmp_path / "gen-1"
        artifact.mkdir()
        (artifact / "data.npy").write_bytes(b"y" * 64)

        class _Record:
            path = str(artifact)

        class _Registry:
            def records(self, kind):
                return [_Record()] if kind == "graph" else []

        metrics = MetricsRegistry()
        ResourceAccountant(metrics=metrics, registry=_Registry())
        text = metrics.render_prometheus()
        assert 'artifact_disk_bytes{kind="graph"} 64' in text
        assert 'artifact_generations{kind="graph"} 1' in text
