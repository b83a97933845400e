"""Per-generation resource accounting (artifact bytes on disk)."""

from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ResourceAccountant


class TestResourceAccounting:
    def test_usage_without_registry_reports_no_artifacts(self):
        accountant = ResourceAccountant(metrics=None)
        assert accountant.usage() == {"artifacts": {}}

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

    def test_graph_generations_are_each_counted_once(self, tmp_path):
        """A graph record points at its own immutable ``graph-csr-NNNNNN/``
        directory, not at the (growing, shared) registry root: a second
        publish adds exactly its own bytes, also after the first walk was
        cached."""
        from repro.graph import EntityGraph
        from repro.serving import ArtifactRegistry

        def tree_bytes(path):
            return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())

        registry = ArtifactRegistry(tmp_path / "registry")
        accountant = ResourceAccountant(metrics=None, registry=registry)
        v1 = registry.publish_graph(
            EntityGraph.from_edge_list(20, [(0, 1), (1, 2)], [0.9, 0.8])
        )
        first = accountant.usage()["artifacts"]["graph"]
        assert first == {"generations": 1, "disk_bytes": tree_bytes(Path(v1.path))}

        v2 = registry.publish_graph(
            EntityGraph.from_edge_list(
                20, [(2, 3), (3, 4), (4, 5)], [0.7, 0.6, 0.5]
            )
        )
        assert accountant.usage()["artifacts"]["graph"] == {
            "generations": 2,
            "disk_bytes": first["disk_bytes"] + tree_bytes(Path(v2.path)),
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
