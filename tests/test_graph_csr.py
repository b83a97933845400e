"""CSR artifact substrate: roundtrip, corruption, and the k-hop oracle.

The load-bearing property: ``k_hop_expansion`` over a frozen
:class:`CSRGraph` (vectorized frontier sweep) must return exactly what
``reference_model.reference_expansion`` (a per-node walk over the
committed edge list) defines — same hop ordering, same scores, same
parents — on any graph, under every knob combination. Speed without
that doesn't count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_owned_read_only
from reference_model import expansion_key, reference_expansion
from repro.errors import CorruptArtifactError, StorageError
from repro.graph import CSRGraph, EntityGraph, csr_meta_digest
from repro.graph.csr import META_NAME
from repro.graph.khop import k_hop_expansion
from repro.serving import ArtifactRegistry


def random_edges(rng, num_nodes, max_edges=150):
    """Unique undirected edges with float32-representable weights."""
    m = int(rng.integers(5, max_edges))
    src = rng.integers(0, num_nodes, size=3 * m)
    dst = rng.integers(0, num_nodes, size=3 * m)
    seen = {}
    for u, v in zip(src, dst):
        if u == v:
            continue
        seen.setdefault((min(int(u), int(v)), max(int(u), int(v))), None)
        if len(seen) == m:
            break
    pairs = sorted(seen)
    weights = rng.uniform(0.05, 1.0, size=len(pairs)).astype(np.float32)
    return pairs, weights.astype(np.float64)


def triples(pairs, weights):
    return [(u, v, w) for (u, v), w in zip(pairs, weights)]


class TestRoundtrip:
    def test_save_load_preserves_structure(self, tmp_path, rng):
        pairs, weights = random_edges(rng, num_nodes=40)
        relations = rng.integers(0, 3, size=len(pairs))
        frozen = CSRGraph.from_edges(40, np.array(pairs), weights, relations)
        frozen.save(tmp_path / "csr")

        loaded = CSRGraph.load(tmp_path / "csr")
        assert loaded.num_nodes == 40
        assert loaded.num_edges == len(pairs)
        assert np.array_equal(loaded.offsets, frozen.offsets)
        assert np.array_equal(loaded.neighbors_arr, frozen.neighbors_arr)
        assert np.array_equal(loaded.weights_arr, frozen.weights_arr)
        assert np.array_equal(loaded.relations_arr, frozen.relations_arr)
        # Proven into process memory: read-only, and no array is a mapping.
        for array in (
            loaded.offsets, loaded.neighbors_arr, loaded.weights_arr, loaded.relations_arr
        ):
            assert_owned_read_only(array)

    def test_rows_sorted_ascending_by_neighbor(self, rng):
        pairs, weights = random_edges(rng, num_nodes=30)
        frozen = CSRGraph.from_edges(30, np.array(pairs), weights)
        for node in range(30):
            ids, _ = frozen.neighbors(node)
            assert np.all(np.diff(ids) > 0)  # sorted, no duplicates

    def test_entity_graph_roundtrip(self, rng):
        pairs, weights = random_edges(rng, num_nodes=20)
        graph = EntityGraph.from_edge_list(
            20, pairs, np.asarray(weights, dtype=np.float32), [1] * len(pairs)
        )
        back = CSRGraph.from_entity_graph(graph).graph()
        assert np.array_equal(
            np.stack(back.canonical_pairs(), 1), np.stack(graph.canonical_pairs(), 1)
        )
        assert np.allclose(back.weight, graph.weight)

    def test_validate_proves_checksums(self, tmp_path, rng):
        pairs, weights = random_edges(rng, num_nodes=15)
        directory = CSRGraph.from_edges(15, np.array(pairs), weights).save(
            tmp_path / "csr"
        )
        assert CSRGraph.load(directory).num_nodes == 15  # the open is the proof
        assert len(csr_meta_digest(directory)) == 64
        path = directory / "weights.npy"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # one weight's bits: the structure still fits
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="checksum mismatch.*weights"):
            CSRGraph.load(directory)


class TestCorruption:
    def freeze(self, tmp_path, rng, num_nodes=15):
        pairs, weights = random_edges(rng, num_nodes)
        return CSRGraph.from_edges(num_nodes, np.array(pairs), weights).save(
            tmp_path / "csr"
        )

    def test_missing_directory_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="missing"):
            CSRGraph.load(tmp_path / "nope")

    def test_truncated_array_fails_verification(self, tmp_path, rng):
        directory = self.freeze(tmp_path, rng)
        path = directory / "neighbors.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptArtifactError, match="checksum"):
            CSRGraph.load(directory)

    def test_torn_manifest_is_corrupt(self, tmp_path, rng):
        directory = self.freeze(tmp_path, rng)
        (directory / META_NAME).write_text("{torn", encoding="utf-8")
        with pytest.raises(CorruptArtifactError):
            CSRGraph.load(directory)

    def test_unknown_format_is_corrupt(self, tmp_path, rng):
        directory = self.freeze(tmp_path, rng)
        (directory / META_NAME).write_text('{"format": "csr-v99"}', encoding="utf-8")
        with pytest.raises(CorruptArtifactError, match="format"):
            CSRGraph.load(directory)


class TestExpansionParity:
    """Property-style: the vectorized CSR kernel == the oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_default_knobs(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(10, 60))
        pairs, weights = random_edges(rng, num_nodes)
        csr = CSRGraph.from_edges(num_nodes, np.array(pairs), weights)
        edges = triples(pairs, weights)
        seeds = sorted(
            rng.choice(num_nodes, size=int(rng.integers(1, 4)), replace=False).tolist()
        )
        for depth in (0, 1, 2, 3):
            assert expansion_key(
                k_hop_expansion(csr, seeds, depth)
            ) == reference_expansion(num_nodes, edges, seeds, depth)

    @pytest.mark.parametrize("seed", range(8))
    def test_knob_corners(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_nodes = int(rng.integers(12, 50))
        pairs, weights = random_edges(rng, num_nodes)
        csr = CSRGraph.from_edges(num_nodes, np.array(pairs), weights)
        edges = triples(pairs, weights)
        seeds = [int(rng.integers(0, num_nodes))]
        for min_w in (0.0, 0.3, 0.6):
            for max_nodes in (None, 1, 5, 20):
                for cap in (None, 1, 2, 3):
                    kwargs = dict(
                        min_edge_weight=min_w,
                        max_nodes=max_nodes,
                        max_neighbors_per_node=cap,
                    )
                    assert expansion_key(
                        k_hop_expansion(csr, seeds, 3, **kwargs)
                    ) == reference_expansion(num_nodes, edges, seeds, 3, **kwargs)

    def test_weights_that_float32_cannot_represent(self):
        """The float rule: the artifact stores float32, so scores are
        products of the *stored* weights and thresholds see the stored
        value — not the committed float64."""
        edges = [(0, 1, 0.1), (1, 2, 0.7), (0, 3, 0.3), (3, 2, 0.2), (2, 4, 0.6)]
        csr = CSRGraph.from_edges(
            5, np.array([(u, v) for u, v, _ in edges]), [w for _, _, w in edges]
        )
        for kwargs in ({}, {"min_edge_weight": 0.7}, {"max_neighbors_per_node": 1}):
            for depth in (1, 2, 3):
                assert expansion_key(
                    k_hop_expansion(csr, [0], depth, **kwargs)
                ) == reference_expansion(5, edges, [0], depth, **kwargs)
        scores = k_hop_expansion(csr, [0], 2).scores
        assert scores[2] == float(np.float32(0.1)) * float(np.float32(0.7))
        assert scores[2] != 0.1 * 0.7
        # float32(0.7) < 0.7, yet an edge committed at 0.7 survives a 0.7
        # threshold: both sides of the comparison are the stored value.
        assert 2 in k_hop_expansion(csr, [1], 1, min_edge_weight=0.7).scores

    def test_registry_generation_expands_the_published_edges(self, tmp_path, rng):
        """End to end: what the registry freezes is what its reopened
        ``graph-csr-NNNNNN/`` generation expands."""
        num_nodes = 40
        pairs, weights = random_edges(rng, num_nodes)
        graph = EntityGraph.from_edge_list(num_nodes, pairs, weights, [0] * len(pairs))
        record = ArtifactRegistry(tmp_path).publish_graph(graph, tag="parity")

        served = ArtifactRegistry(tmp_path).open_graph(record.version)
        assert isinstance(served, CSRGraph)
        assert Path(record.path).name == "graph-csr-000001"
        seeds = [pairs[0][0]]
        for depth in (1, 2, 3):
            assert expansion_key(
                k_hop_expansion(served, seeds, depth)
            ) == reference_expansion(num_nodes, triples(pairs, weights), seeds, depth)

    def test_entity_graph_agrees_up_to_row_order(self, rng):
        """The in-memory :class:`EntityGraph` keeps its rows in insertion
        order, not neighbour order, so only what row order cannot change
        is compared: scores, parents, and each hop as a set."""
        num_nodes = 30
        pairs, weights = random_edges(rng, num_nodes)
        graph = EntityGraph.from_edge_list(
            num_nodes, pairs, weights, [0] * len(pairs)
        )
        seeds = [pairs[0][0], pairs[-1][1]]
        for cap in (None, 2):
            got = k_hop_expansion(graph, seeds, 2, max_neighbors_per_node=cap)
            _, hops, scores, parents = reference_expansion(
                num_nodes, triples(pairs, weights), seeds, 2,
                max_neighbors_per_node=cap,
            )
            assert (got.scores, got.parents) == (scores, parents)
            assert [sorted(h) for h in got.hops] == [sorted(h) for h in hops]


class TestTopKDeterminism:
    """The per-row cap must match a full stable argsort exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        # A star around node 0 with quantized weights: ties everywhere, so
        # hop 1 is the cap's choice, strongest first, ties by neighbour id.
        weights = rng.integers(1, 5, size=n) / 4.0
        star = CSRGraph.from_edges(
            n + 1, np.array([(0, i) for i in range(1, n + 1)]), weights
        )
        for k in (1, 2, 3, n // 2 + 1, n, n + 5):
            expected = np.argsort(-weights, kind="stable")[:k] + 1
            got = k_hop_expansion(star, [0], 1, max_neighbors_per_node=k)
            assert got.hops[1] == expected.tolist()

    def test_capped_expansion_is_deterministic(self, rng):
        pairs, weights = random_edges(rng, num_nodes=30)
        # All-equal weights: every neighbor ties, so the cap must break
        # ties by ascending position (== ascending neighbor id) every run.
        ties = np.full(len(pairs), 0.5)
        graph = CSRGraph.from_edges(30, np.array(pairs), ties)
        first = k_hop_expansion(graph, [pairs[0][0]], 2, max_neighbors_per_node=2)
        assert expansion_key(first) == reference_expansion(
            30, triples(pairs, ties), [pairs[0][0]], 2, max_neighbors_per_node=2
        )
        for _ in range(3):
            again = k_hop_expansion(graph, [pairs[0][0]], 2, max_neighbors_per_node=2)
            assert expansion_key(again) == expansion_key(first)


def test_one_graph_one_listener():
    """Guard: the deleted pointwise kernel, dict-adjacency reader, graph
    sharding stack, thread pool and second HTTP server must not come back
    unnoticed."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    text = {path: path.read_text(encoding="utf-8") for path in src.rglob("*.py")}
    everything = "\n".join(text.values())
    assert len(re.findall(r"class \w+\([^)]*BaseHTTPRequestHandler", everything)) == 1
    assert re.findall(r"def (_expand_\w+)", everything) == ["_expand_csr"]
    assert not re.search(r"gather_frontier|use_csr", everything)
    for path, body in text.items():
        if path.parent.name in ("graph", "preference"):
            assert "ThreadPoolExecutor" not in body, path
    assert set(re.findall(r'"csr-[a-z0-9-]+"', everything)) == {'"csr-v1"'}
    for module in ("registry.py", "runtime.py"):
        assert not re.search(
            r'"snapshot"|"sharded_store"|"csr-sharded"', text[src / "serving" / module]
        ), module


def test_one_graph_publisher():
    """Guard: the registry's ``graph-csr-NNNNNN/`` generation is the only
    way a graph becomes servable — the WAL/snapshot graph store, its
    pinned readers and the write-only adjacency arrays stay deleted."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert not (src / "graph" / "storage.py").exists()
    banned = {
        "GraphStore", "SnapshotReader", "put_edges", "commit_version",
        "snapshot_reader", "_adj_relation", "_adj_edge_id",
    }
    publish_params = []
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = set(re.findall(r"\w+", node.value))
            else:
                names = {
                    getattr(node, field) for field in ("id", "attr", "name", "arg")
                    if isinstance(getattr(node, field, None), str)
                }
            assert not names & banned, (path, names & banned)
            if isinstance(node, ast.FunctionDef) and node.name == "publish_graph":
                publish_params.append(
                    [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
                )
    assert publish_params == [["self", "graph", "tag"]]
