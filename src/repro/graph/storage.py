"""Embedded, versioned graph store — the stand-in for Geabase.

The paper persists the mined entity graph in Geabase, Ant's distributed
graph database, and refreshes it weekly (§II-B). This module provides the
same *contract* as an embedded store:

* durable writes through an append-only, CRC-checked, fsynced
  write-ahead log;
* weekly ``commit_version`` generations: a compacted ``.npz`` snapshot
  (the write side's merge base for the next commit) plus the frozen
  ``csr-NNNNNN/`` :class:`~repro.graph.csr.CSRGraph` artifact the online
  stage serves reads from;
* crash recovery: on reopen, the latest snapshot is loaded and the WAL tail
  is replayed, truncating at the first corrupt record;
* point reads (``neighbors``) that merge the snapshot with the memtable.

It is single-process and single-writer, which matches the offline pipeline's
weekly batch producer / online reader split at reproduction scale.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.graph.csr import CSRGraph
from repro.graph.entity_graph import EntityGraph
from repro.resilience.atomic import atomic_write_text

_WAL_HEADER = struct.Struct("<II")  # (payload length, crc32)

_OP_PUT = "put"
_OP_DELETE = "delete"


class SnapshotReader:
    """Immutable read-only view pinned to one committed version.

    The reader maps the version's frozen CSR artifact when constructed and
    stays frozen: concurrent writes, later commits, and even
    :meth:`GraphStore.compact` deleting the backing directory cannot change
    what an in-flight request sees. Exposes ``num_nodes`` / ``csr_view()``
    / ``neighbors``, so k-hop expansion runs directly on it.
    """

    artifact_format = CSRGraph.artifact_format

    def __init__(self, store: "GraphStore", version: int) -> None:
        self.version = version
        self.num_nodes = store.num_nodes
        self._csr = store._open_csr(version)

    @property
    def num_edges(self) -> int:
        return self._csr.num_edges

    def csr_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._csr.csr_view()

    def neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_ids, weights)`` arrays — EntityGraph-compatible."""
        return self._csr.neighbors(node)

    def graph(self) -> EntityGraph:
        """Materialise the pinned version as an :class:`EntityGraph`."""
        return self._csr.graph()


class GraphStore:
    """Durable store for versioned entity graphs.

    Parameters
    ----------
    path:
        Directory for WAL, snapshots and manifest; created if missing.
    num_nodes:
        Entity-universe size. Required when creating a new store; when
        reopening an existing one it is validated against the manifest.
    """

    def __init__(self, path: str | Path, num_nodes: int | None = None) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.path / "MANIFEST.json"
        self._wal_path = self.path / "wal.log"

        if self._manifest_path.exists():
            self._manifest = json.loads(self._manifest_path.read_text())
            if num_nodes is not None and num_nodes != self._manifest["num_nodes"]:
                raise StorageError(
                    f"store holds {self._manifest['num_nodes']} nodes, caller expects {num_nodes}"
                )
        else:
            if num_nodes is None:
                raise StorageError("num_nodes is required when creating a new store")
            self._manifest = {"num_nodes": int(num_nodes), "versions": []}
            self._write_manifest()

        self.num_nodes = int(self._manifest["num_nodes"])
        # memtable: canonical pair -> (weight, relation) or None for deletes
        self._memtable: dict[tuple[int, int], tuple[float, int] | None] = {}
        # Opened memmap CSR artifacts, shared so two readers pinning the
        # same version reuse one mapping; evicted by compact().
        self._csr_cache: dict[int, CSRGraph] = {}
        self._replay_wal()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put_edges(
        self,
        pairs: list[tuple[int, int]],
        weights: list[float] | None = None,
        relations: list[int] | None = None,
    ) -> None:
        """Insert/overwrite edges; durable once the call returns."""
        n = len(pairs)
        weights = [1.0] * n if weights is None else list(weights)
        relations = [0] * n if relations is None else list(relations)
        if len(weights) != n or len(relations) != n:
            raise StorageError("weights/relations must match pairs length")
        records = []
        for (u, v), w, r in zip(pairs, weights, relations):
            u, v = int(u), int(v)
            if u == v or not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise StorageError(f"invalid edge ({u}, {v})")
            records.append([_OP_PUT, min(u, v), max(u, v), float(w), int(r)])
        self._append_wal(records)
        for _, u, v, w, r in records:
            self._memtable[(u, v)] = (w, r)

    def delete_edges(self, pairs: list[tuple[int, int]]) -> None:
        """Delete edges (tombstones survive until the next snapshot)."""
        records = [[_OP_DELETE, min(int(u), int(v)), max(int(u), int(v)), 0.0, 0] for u, v in pairs]
        self._append_wal(records)
        for _, u, v, _w, _r in records:
            self._memtable[(u, v)] = None

    def _append_wal(self, records: list[list]) -> None:
        payload = json.dumps(records, separators=(",", ":")).encode()
        header = _WAL_HEADER.pack(len(payload), zlib.crc32(payload))
        with open(self._wal_path, "ab") as f:
            f.write(header)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())

    def _replay_wal(self) -> None:
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        offset = 0
        valid_until = 0
        while offset + _WAL_HEADER.size <= len(data):
            length, crc = _WAL_HEADER.unpack_from(data, offset)
            start = offset + _WAL_HEADER.size
            end = start + length
            if end > len(data):
                break  # torn write at the tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # corruption: stop replay here
            for op, u, v, w, r in json.loads(payload):
                if op == _OP_PUT:
                    self._memtable[(u, v)] = (w, r)
                elif op == _OP_DELETE:
                    self._memtable[(u, v)] = None
                else:
                    raise StorageError(f"unknown WAL op {op!r}")
            offset = end
            valid_until = end
        if valid_until < len(data):
            # Truncate the corrupt tail so the next append starts clean.
            with open(self._wal_path, "r+b") as f:
                f.truncate(valid_until)

    # ------------------------------------------------------------------
    # Snapshots / versions
    # ------------------------------------------------------------------
    def commit_version(self, tag: str | None = None) -> int:
        """Compact memtable + latest snapshot into a new immutable version.

        Returns the new version number. The WAL is truncated afterwards:
        all its effects are now captured by the snapshot. Alongside the
        ``.npz`` snapshot (the next commit's merge base) the version is
        frozen into an immutable CSR artifact directory (``csr-NNNNNN/``)
        — the only form the serving read path opens.
        """
        merged = self._merged_edges()
        version = (self._manifest["versions"][-1]["version"] + 1) if self._manifest["versions"] else 1
        snap_path = self.path / f"snapshot-{version:06d}.npz"
        if merged:
            pairs = np.array(sorted(merged), dtype=np.int64)
            weights = np.array([merged[tuple(p)][0] for p in pairs])
            relations = np.array([merged[tuple(p)][1] for p in pairs], dtype=np.int64)
        else:
            pairs = np.empty((0, 2), dtype=np.int64)
            weights = np.empty(0)
            relations = np.empty(0, dtype=np.int64)
        np.savez_compressed(snap_path, pairs=pairs, weights=weights, relations=relations)
        CSRGraph.from_edges(self.num_nodes, pairs, weights, relations).save(
            self.csr_path(version)
        )
        self._manifest["versions"].append(
            {
                "version": version,
                "tag": tag or f"v{version}",
                "edges": int(len(pairs)),
            }
        )
        self._write_manifest()
        self._memtable.clear()
        if self._wal_path.exists():
            self._wal_path.unlink()
        return version

    def csr_path(self, version: int) -> Path:
        """Directory of the frozen CSR artifact for ``version``."""
        return self.path / f"csr-{version:06d}"

    def _open_csr(self, version: int) -> CSRGraph:
        """Memory-map a version's CSR artifact.

        Opened artifacts are shared per (store, version): remapping the
        same generation twice costs one page table, not two copies.
        """
        cached = self._csr_cache.get(version)
        if cached is None:
            cached = self._csr_cache[version] = CSRGraph.load(self.csr_path(version))
        return cached

    def versions(self) -> list[dict]:
        """Metadata for every committed version, oldest first."""
        return [dict(v) for v in self._manifest["versions"]]

    def latest_version(self) -> int | None:
        vs = self._manifest["versions"]
        return vs[-1]["version"] if vs else None

    def load_version(self, version: int | None = None) -> EntityGraph:
        """Materialise a committed version as an :class:`EntityGraph`."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise StorageError("no committed versions in this store")
        known = {v["version"] for v in self._manifest["versions"]}
        if version not in known:
            raise StorageError(f"unknown version {version}; have {sorted(known)}")
        pairs, weights, relations = self._read_snapshot(version)
        if len(pairs) == 0:
            return EntityGraph(
                self.num_nodes, np.empty(0, np.int64), np.empty(0, np.int64)
            )
        return EntityGraph(self.num_nodes, pairs[:, 0], pairs[:, 1], weights, relations)

    def snapshot_reader(self, version: int | None = None) -> SnapshotReader:
        """A pinned, immutable reader over one committed version.

        Defaults to the latest version. Unlike :meth:`load_version`, the
        reader keeps its version id attached and serves from the version's
        memmapped CSR artifact without the memtable merge.
        """
        if version is None:
            version = self.latest_version()
            if version is None:
                raise StorageError("no committed versions in this store")
        known = {v["version"] for v in self._manifest["versions"]}
        if version not in known:
            raise StorageError(f"unknown version {version}; have {sorted(known)}")
        return SnapshotReader(self, version)

    def current_graph(self) -> EntityGraph:
        """Latest snapshot merged with uncommitted memtable edits."""
        merged = self._merged_edges()
        if not merged:
            return EntityGraph(self.num_nodes, np.empty(0, np.int64), np.empty(0, np.int64))
        pairs = np.array(sorted(merged), dtype=np.int64)
        weights = np.array([merged[tuple(p)][0] for p in pairs])
        relations = np.array([merged[tuple(p)][1] for p in pairs], dtype=np.int64)
        return EntityGraph(self.num_nodes, pairs[:, 0], pairs[:, 1], weights, relations)

    def neighbors(self, node: int) -> list[tuple[int, float, int]]:
        """Point read: (neighbor, weight, relation) triples for ``node``.

        Merges the latest snapshot with memtable puts/tombstones without
        materialising the whole graph — the online serving read path.
        """
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        result: dict[int, tuple[float, int]] = {}
        latest = self.latest_version()
        if latest is not None:
            pairs, weights, relations = self._read_snapshot(latest)
            if len(pairs):
                mask = (pairs[:, 0] == node) | (pairs[:, 1] == node)
                for (u, v), w, r in zip(pairs[mask], weights[mask], relations[mask]):
                    other = int(v) if int(u) == node else int(u)
                    result[other] = (float(w), int(r))
        for (u, v), value in self._memtable.items():
            if node not in (u, v):
                continue
            other = v if u == node else u
            if value is None:
                result.pop(other, None)
            else:
                result[other] = value
        return [(nbr, w, r) for nbr, (w, r) in sorted(result.items())]

    # ------------------------------------------------------------------
    def _merged_edges(self) -> dict[tuple[int, int], tuple[float, int]]:
        merged: dict[tuple[int, int], tuple[float, int]] = {}
        latest = self.latest_version()
        if latest is not None:
            pairs, weights, relations = self._read_snapshot(latest)
            for (u, v), w, r in zip(pairs, weights, relations):
                merged[(int(u), int(v))] = (float(w), int(r))
        for key, value in self._memtable.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        return merged

    def _read_snapshot(self, version: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        snap_path = self.path / f"snapshot-{version:06d}.npz"
        if not snap_path.exists():
            raise StorageError(f"snapshot file missing for version {version}")
        with np.load(snap_path) as data:
            return data["pairs"], data["weights"], data["relations"]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self, keep_last: int = 4) -> int:
        """Drop all but the newest ``keep_last`` snapshot files.

        The weekly cadence accumulates one snapshot per week forever; this
        reclaims disk while keeping enough history for the ensemble window.
        Returns the number of versions removed.
        """
        if keep_last < 1:
            raise StorageError("keep_last must be >= 1")
        versions = self._manifest["versions"]
        if len(versions) <= keep_last:
            return 0
        drop, keep = versions[:-keep_last], versions[-keep_last:]
        for meta in drop:
            dropped = meta["version"]
            snap = self.path / f"snapshot-{dropped:06d}.npz"
            if snap.exists():
                snap.unlink()
            shutil.rmtree(self.csr_path(dropped), ignore_errors=True)
            self._csr_cache.pop(dropped, None)
        self._manifest["versions"] = keep
        self._write_manifest()
        return len(drop)

    def scan_edges(self, version: int | None = None):
        """Iterate ``(u, v, weight, relation)`` tuples of a committed version."""
        if version is None:
            version = self.latest_version()
            if version is None:
                raise StorageError("no committed versions to scan")
        pairs, weights, relations = self._read_snapshot(version)
        for (u, v), w, r in zip(pairs, weights, relations):
            yield int(u), int(v), float(w), int(r)

    def stats(self) -> dict:
        """Operational counters: versions, edges, pending memtable entries."""
        versions = self.versions()
        return {
            "num_nodes": self.num_nodes,
            "num_versions": len(versions),
            "latest_version": self.latest_version(),
            "latest_edges": versions[-1]["edges"] if versions else 0,
            "memtable_entries": len(self._memtable),
            "wal_bytes": self._wal_path.stat().st_size if self._wal_path.exists() else 0,
        }

    def _write_manifest(self) -> None:
        atomic_write_text(self._manifest_path, json.dumps(self._manifest, indent=2))
