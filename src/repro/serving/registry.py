"""Versioned artifact registry — the offline → online handoff contract.

The paper's producers run on their own cadence (weekly TRMP graph, daily
preference index) and the online stage must never observe a half-written
artifact. The registry makes that explicit: every publish creates an
immutable, named, versioned record; readers open artifacts *by version* and
the record list only ever grows. Two artifact kinds exist today:

* ``graph`` — a committed :class:`~repro.graph.GraphStore` version (opened
  as a pinned :class:`~repro.graph.storage.SnapshotReader`, memmap CSR
  backed when the version carries the frozen artifact), a rooted storeless
  publish (frozen straight to a ``graph-csr-NNNNNN/`` CSR directory under
  the registry root, source ``"csr"``), or an in-memory
  :class:`~repro.graph.EntityGraph` when the registry has no root;
* ``preferences`` — a built :class:`~repro.preference.PreferenceStore`,
  frozen to a memmap-able ``preferences-NNNNNN/`` directory (one
  sub-directory per user partition) when the registry has a root
  directory and opened zero-copy from it; held in memory otherwise.

Crash safety (a rooted registry is the system's durable state):

* every durable write — preference artifacts, the record manifest
  (``registry.json``), drift reports — goes through temp file + fsync +
  atomic rename, so a torn write leaves the previous complete file;
* directory artifacts carry per-array SHA-256 checksums in their
  ``meta.json`` and the ``meta.json`` digest in their record: proven in
  full at publish and at startup, trusted (structure checks only) at
  swap time so an open stays O(1) in artifact size;
* one recovery rule for every kind: an artifact that fails validation is
  *quarantined* under ``quarantine/`` and its record dropped instead of
  serving bad bytes — ``latest()`` then resolves to the previous good
  generation, at startup as well as on open, so a corrupt artifact on
  disk degrades the catalogue rather than crashing the process;
* per-stage refresh checkpoints live in a sibling
  :class:`~repro.resilience.CheckpointStore` under ``checkpoints/``.

Drift reports ride alongside: :meth:`ArtifactRegistry.attach_drift_report`
files a :class:`~repro.obs.drift.DriftReport` under the artifact version it
measured, persisted as ``drift-{kind}-{version:06d}.json`` when the
registry is rooted, so "what changed when we swapped to v7?" survives a
process restart.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CorruptArtifactError, StorageError
from repro.obs.drift import DriftReport
from repro.graph.csr import CSRGraph, csr_meta_digest
from repro.graph.entity_graph import EntityGraph
from repro.graph.sharding import ShardedGraphStore, ShardWorkerPool
from repro.graph.storage import GraphStore, SnapshotReader
from repro.preference.store import PreferenceStore
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    atomic_write_text,
    file_digest,
)

KIND_GRAPH = "graph"
KIND_PREFERENCES = "preferences"

MANIFEST_NAME = "registry.json"
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class ArtifactRecord:
    """One immutable published artifact: what it is and where it lives.

    ``format`` names the serving representation (``"csr"``,
    ``"csr-sharded"``, ``"snapshot"``, ``"memmap"``, ``"memory"``). For a
    directory artifact ``path`` is the directory and ``checksum`` the
    digest of its ``meta.json``. ``shards`` records the generation's
    shard count (``None`` ≡ 1).
    """

    kind: str
    version: int
    tag: str
    source: str  # "store" | "file" | "memory" | "csr" | "sharded_store"
    path: str | None = None
    edges: int | None = None
    checksum: str | None = None
    format: str | None = None
    shards: int | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "tag": self.tag,
            "source": self.source,
            "path": self.path,
            "edges": self.edges,
            "checksum": self.checksum,
            "format": self.format,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArtifactRecord":
        return cls(
            kind=data["kind"],
            version=int(data["version"]),
            tag=data["tag"],
            source=data["source"],
            path=data.get("path"),
            edges=data.get("edges"),
            checksum=data.get("checksum"),
            format=data.get("format"),
            shards=data.get("shards"),
        )


class ArtifactRegistry:
    """Append-only catalogue of published serving artifacts.

    Parameters
    ----------
    root:
        Optional directory for durable artifacts (preference and CSR graph
        directories). Without it the registry still versions and names artifacts,
        holding storeless ones in memory — the shape integration tests use.
    faults:
        Optional :class:`~repro.resilience.FaultInjector`; when given, the
        ``registry.write`` / ``registry.read`` seams fire on every durable
        write / artifact open (the chaos suite's flaky-storage knob).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self._faults = faults
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._records: dict[str, list[ArtifactRecord]] = {
            KIND_GRAPH: [],
            KIND_PREFERENCES: [],
        }
        self._graph_store: GraphStore | None = None
        self._memory: dict[tuple[str, int], object] = {}
        self._drift: dict[tuple[str, int], DriftReport] = {}
        #: Artifacts moved aside because they failed validation — each entry
        #: is ``{kind, version, path, reason}``. Surfaced in ``health()``.
        self.quarantined: list[dict] = []
        self.checkpoints = CheckpointStore(
            root=self.root / "checkpoints" if self.root is not None else None,
            faults=faults,
        )
        if self.root is not None:
            self._load_manifest()
            self._load_drift_reports()

    # ------------------------------------------------------------------
    # Publish (producer side)
    # ------------------------------------------------------------------
    def publish_graph(
        self,
        graph: GraphStore | EntityGraph,
        version: int | None = None,
        tag: str | None = None,
    ) -> ArtifactRecord:
        """Register a weekly graph artifact.

        A :class:`GraphStore` publishes one of its committed versions
        (default: latest) — the snapshot + CSR artifact pair *is* the
        artifact; the frozen CSR directory is checksum-verified here at
        publish time (verify-at-ingest) so later opens can trust-and-map
        it without re-hashing. A plain :class:`EntityGraph` is frozen to a
        ``graph-csr-NNNNNN/`` CSR directory when the registry is rooted
        (source ``"csr"``, durable across restarts) and kept in memory
        otherwise.
        """
        self._check_faults("registry.write")
        if isinstance(graph, (GraphStore, ShardedGraphStore)):
            if self._graph_store is not None and self._graph_store is not graph:
                raise StorageError("registry is already bound to a different GraphStore")
            self._graph_store = graph
            if version is None:
                version = graph.latest_version()
                if version is None:
                    raise StorageError("store has no committed versions to publish")
            meta = {v["version"]: v for v in graph.versions()}
            if version not in meta:
                raise StorageError(f"store has no committed version {version}")
            if isinstance(graph, ShardedGraphStore):
                # Verify-at-ingest for every shard: a generation with one
                # bad shard must never be registered — the publish raises
                # before _append, so latest() keeps resolving to the
                # previous good generation (atomic rollback).
                self._verify_sharded_generation(graph, version)
                record = ArtifactRecord(
                    kind=KIND_GRAPH,
                    version=version,
                    tag=tag or meta[version]["tag"],
                    source="sharded_store",
                    path=str(graph.path),
                    edges=meta[version]["edges"],
                    format="csr-sharded",
                    shards=graph.n_shards,
                )
            else:
                record = ArtifactRecord(
                    kind=KIND_GRAPH,
                    version=version,
                    tag=tag or meta[version]["tag"],
                    source="store",
                    path=str(graph.path),
                    edges=meta[version]["edges"],
                    format=self._verified_store_format(graph, version),
                )
        elif self.root is not None:
            version = self._next_version(KIND_GRAPH) if version is None else version
            directory = self.root / f"graph-csr-{version:06d}"
            CSRGraph.from_entity_graph(graph).save(directory)
            record = ArtifactRecord(
                kind=KIND_GRAPH,
                version=version,
                tag=tag or f"graph-v{version}",
                source="csr",
                path=str(directory),
                edges=graph.num_edges,
                checksum=csr_meta_digest(directory),
                format="csr",
            )
        else:
            version = self._next_version(KIND_GRAPH) if version is None else version
            record = ArtifactRecord(
                kind=KIND_GRAPH,
                version=version,
                tag=tag or f"graph-v{version}",
                source="memory",
                edges=graph.num_edges,
                format="memory",
            )
            self._memory[(KIND_GRAPH, version)] = graph
        return self._append(record)

    def _verify_sharded_generation(
        self, store: ShardedGraphStore, generation: int
    ) -> None:
        """Digest + array proof of every shard CSR of one generation.

        Any failure quarantines the offending shard artifact and raises —
        no record is appended, the generation is never servable.
        """
        entry = store._generation_entry(generation)
        for spec in entry["shards"]:
            directory = store.shard_store(spec["shard"]).csr_path(spec["version"])
            try:
                if (
                    not (directory / "meta.json").exists()
                    or csr_meta_digest(directory) != spec["checksum"]
                ):
                    raise CorruptArtifactError("shard manifest digest mismatch")
                CSRGraph.validate(directory)
            except (StorageError, TypeError) as error:
                self._quarantine_dir(
                    KIND_GRAPH,
                    generation,
                    directory,
                    f"shard {spec['shard']} CSR invalid: {error}",
                )
                raise StorageError(
                    f"sharded generation {generation} rejected: shard "
                    f"{spec['shard']} failed validation: {error}"
                ) from error

    def _verified_store_format(self, store: GraphStore, version: int) -> str:
        """``"csr"`` when the version's CSR artifact proves out, else
        ``"snapshot"`` (legacy versions, or a corrupt freeze that gets
        quarantined here so the reader falls back to the dict path)."""
        directory = store.csr_path(version)
        if not (directory / "meta.json").exists():
            return "snapshot"
        try:
            CSRGraph.validate(directory)
        except StorageError:
            self._quarantine_dir(
                KIND_GRAPH, version, directory, "CSR artifact failed validation"
            )
            return "snapshot"
        return "csr"

    def publish_preferences(
        self, store: PreferenceStore, tag: str | None = None
    ) -> ArtifactRecord:
        """Register a daily preference artifact (frozen to disk if rooted).

        A rooted registry writes the store — in whatever partitioning it
        carries — to ``preferences-NNNNNN/``: every array through the
        atomic temp + rename path with its SHA-256 recorded in
        ``meta.json``, which lands last; the ``meta.json`` digest goes
        into the record, pinning the whole directory.
        """
        self._check_faults("registry.write")
        version = self._next_version(KIND_PREFERENCES)
        tag = tag or f"daily-{version}"
        store.version_tag = tag
        shards = store.n_shards if store.n_shards > 1 else None
        if self.root is not None:
            directory = store.save_memmap(self.root / f"preferences-{version:06d}")
            record = ArtifactRecord(
                kind=KIND_PREFERENCES, version=version, tag=tag,
                source="file", path=str(directory),
                checksum=file_digest(directory / "meta.json"),
                format="memmap", shards=shards,
            )
        else:
            record = ArtifactRecord(
                kind=KIND_PREFERENCES, version=version, tag=tag, source="memory",
                format="memory", shards=shards,
            )
            self._memory[(KIND_PREFERENCES, version)] = store
        return self._append(record)

    # ------------------------------------------------------------------
    # Open (serving side)
    # ------------------------------------------------------------------
    def open_graph(self, version: int | None = None, pool: ShardWorkerPool | None = None):
        """Open a published graph artifact, pinned to its version.

        Store records resolve to a pinned snapshot reader (memmap CSR
        backed when available); ``sharded_store`` records resolve to a
        scatter-gather :class:`~repro.graph.sharding.ShardedSnapshotReader`
        over that generation's shard artifacts (``pool`` supplies the
        shard worker pool); ``csr`` records map the frozen artifact
        directory read-only — the checksums were proven at publish (or
        startup), so the open itself is O(1) in graph size.
        """
        self._check_faults("registry.read")
        record = self._resolve(KIND_GRAPH, version)
        if record.source in ("store", "sharded_store"):
            if self._graph_store is None:
                raise StorageError(
                    "graph record references a GraphStore this process has "
                    "not bound; publish the store first"
                )
            if record.source == "sharded_store":
                return self._graph_store.snapshot_reader(record.version, pool=pool)
            return self._graph_store.snapshot_reader(record.version)
        if record.source == "csr":
            return self._open_directory(record, CSRGraph.load)
        return self._memory[(KIND_GRAPH, record.version)]

    def open_preferences(
        self, version: int | None = None, pool: ShardWorkerPool | None = None
    ) -> PreferenceStore:
        """Open a published preference artifact (maps it from disk if rooted).

        The directory was proven at publish (or startup), so the open maps
        it read-only after structure checks alone. An artifact that no
        longer opens is quarantined and its record dropped before
        :class:`~repro.errors.CorruptArtifactError` is raised — the next
        ``open_preferences()`` resolves to the previous good version.
        ``pool`` scores the partitions of a multi-partition artifact.
        """
        self._check_faults("registry.read")
        record = self._resolve(KIND_PREFERENCES, version)
        if record.source == "file":
            return self._open_directory(
                record, lambda path: PreferenceStore.load_memmap(path, pool=pool)
            )
        return self._memory[(KIND_PREFERENCES, record.version)]

    # ------------------------------------------------------------------
    # Validation + quarantine
    # ------------------------------------------------------------------
    def _open_directory(self, record: ArtifactRecord, load):
        """``load(record.path)``, or quarantine the record and raise."""
        try:
            return load(record.path)
        except StorageError as error:
            self._quarantine(record, f"artifact unreadable: {error}")
            raise CorruptArtifactError(
                f"{record.kind} artifact v{record.version} quarantined: {error}"
            ) from error

    @staticmethod
    def _verify_directory(record: ArtifactRecord) -> None:
        """Full proof of a directory artifact: the ``meta.json`` digest the
        record pinned, then every array checksum inside it."""
        directory = Path(record.path)
        if record.checksum is not None and (
            not (directory / "meta.json").exists()
            or file_digest(directory / "meta.json") != record.checksum
        ):
            raise CorruptArtifactError("manifest digest mismatch")
        if record.kind == KIND_GRAPH:
            CSRGraph.validate(directory)
        else:
            PreferenceStore.validate_memmap(directory)

    def _quarantine_dir(
        self, kind: str, version: int, directory: Path, reason: str
    ) -> None:
        """Move a bad artifact *directory* aside without touching records.

        Used for store-owned CSR freezes: the snapshot next to it keeps
        serving (or the publish is refused), so no record changes hands —
        the evidence lands in ``quarantined`` either way. The
        directory moves into a ``quarantine/`` sibling so it works for
        store-owned paths as well as registry-root paths.
        """
        quarantined_path = None
        if directory.exists():
            qdir = (
                self.root / QUARANTINE_DIR
                if self.root is not None
                else directory.parent / QUARANTINE_DIR
            )
            qdir.mkdir(parents=True, exist_ok=True)
            quarantined_path = qdir / directory.name
            if quarantined_path.exists():
                shutil.rmtree(quarantined_path, ignore_errors=True)
            os.replace(directory, quarantined_path)
        self.quarantined.append(
            {
                "kind": kind,
                "version": version,
                "path": str(quarantined_path) if quarantined_path else str(directory),
                "reason": reason,
            }
        )

    def _quarantine(self, record: ArtifactRecord, reason: str) -> None:
        """Move the bad artifact aside, drop the record, keep the evidence."""
        quarantined_path = None
        path = Path(record.path) if record.path else None
        if path is not None and path.exists() and self.root is not None:
            qdir = self.root / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            quarantined_path = qdir / path.name
            if quarantined_path.exists() and quarantined_path.is_dir():
                shutil.rmtree(quarantined_path, ignore_errors=True)
            os.replace(path, quarantined_path)
        records = self._records.get(record.kind, [])
        if record in records:
            records.remove(record)
            self._save_manifest()
        self.quarantined.append(
            {
                "kind": record.kind,
                "version": record.version,
                "path": str(quarantined_path) if quarantined_path else record.path,
                "reason": reason,
            }
        )

    # ------------------------------------------------------------------
    # Drift reports (filed by the serving runtime at swap time)
    # ------------------------------------------------------------------
    def attach_drift_report(self, report: DriftReport) -> None:
        """File a drift report under the artifact version it measured.

        The report is keyed by the *candidate* (new) version — rejected
        swaps file reports too, which is exactly when you want the evidence
        durable. Re-attaching for the same version overwrites (a rejected
        candidate may be re-measured on retry).
        """
        self._require_kind(report.kind)
        self._drift[(report.kind, report.new_version)] = report
        if self.root is not None:
            atomic_write_text(
                self.root / f"drift-{report.kind}-{report.new_version:06d}.json",
                json.dumps(report.to_dict(), indent=2, sort_keys=True),
            )

    def drift_report(self, kind: str, version: int) -> DriftReport | None:
        """The drift report filed for one artifact version, if any."""
        self._require_kind(kind)
        return self._drift.get((kind, version))

    def drift_reports(self, kind: str | None = None) -> list[DriftReport]:
        """All filed drift reports, ordered by (kind, version)."""
        keys = sorted(k for k in self._drift if kind is None or k[0] == kind)
        return [self._drift[k] for k in keys]

    def _load_drift_reports(self) -> None:
        """Rehydrate persisted reports so restarts keep the swap history.

        A torn report file is skipped (recorded under ``quarantined``), not
        fatal — losing one swap's evidence must not block startup.
        """
        assert self.root is not None
        for path in sorted(self.root.glob("drift-*-*.json")):
            try:
                report = DriftReport.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (ValueError, TypeError, KeyError):
                self.quarantined.append(
                    {
                        "kind": "drift-report",
                        "version": None,
                        "path": str(path),
                        "reason": "unparseable drift report",
                    }
                )
                continue
            self._drift[(report.kind, report.new_version)] = report

    # ------------------------------------------------------------------
    # Manifest persistence (rooted registries survive restarts)
    # ------------------------------------------------------------------
    def _save_manifest(self) -> None:
        if self.root is None:
            return
        self._check_faults("registry.write")
        payload = {
            "records": {
                kind: [r.to_dict() for r in records]
                for kind, records in self._records.items()
            }
        }
        atomic_write_text(
            self.root / MANIFEST_NAME, json.dumps(payload, indent=2, sort_keys=True)
        )

    def _load_manifest(self) -> None:
        """Reload the published catalogue; validate every file artifact.

        Memory-source records died with their process and are dropped;
        store-source records are kept (they resolve again once the
        GraphStore is re-bound); directory artifacts that fail their
        checksums are quarantined — startup never crashes on a torn
        artifact.
        """
        assert self.root is not None
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            raw = payload["records"]
        except (ValueError, KeyError):
            self.quarantined.append(
                {
                    "kind": "manifest",
                    "version": None,
                    "path": str(path),
                    "reason": "unparseable registry manifest",
                }
            )
            return
        corrupt: list[tuple[ArtifactRecord, str]] = []
        for kind in self._records:
            for data in raw.get(kind, []):
                record = ArtifactRecord.from_dict(data)
                if record.source == "memory":
                    continue
                if record.source in ("csr", "file"):
                    # Full checksum proof at startup, so every later open
                    # can map the directory without re-hashing.
                    try:
                        self._verify_directory(record)
                    except (StorageError, TypeError) as error:
                        corrupt.append((record, f"artifact invalid: {error}"))
                        continue
                self._records[kind].append(record)
        for record, reason in corrupt:
            self._quarantine(record, reason)

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    @property
    def graph_store(self):
        """The bound (possibly sharded) graph store, if any — used by the
        resource accountant to enumerate per-generation artifact paths."""
        return self._graph_store

    def records(self, kind: str) -> list[ArtifactRecord]:
        return list(self._require_kind(kind))

    def latest(self, kind: str) -> ArtifactRecord | None:
        records = self._require_kind(kind)
        return records[-1] if records else None

    def get_record(self, kind: str, version: int) -> ArtifactRecord:
        for record in self._require_kind(kind):
            if record.version == version:
                return record
        raise StorageError(f"no {kind} artifact with version {version}")

    # ------------------------------------------------------------------
    def _check_faults(self, seam: str) -> None:
        if self._faults is not None:
            self._faults.check(seam)

    def _require_kind(self, kind: str) -> list[ArtifactRecord]:
        if kind not in self._records:
            raise StorageError(f"unknown artifact kind {kind!r}")
        return self._records[kind]

    def _resolve(self, kind: str, version: int | None) -> ArtifactRecord:
        if version is None:
            record = self.latest(kind)
            if record is None:
                raise StorageError(f"no published {kind} artifacts")
            return record
        return self.get_record(kind, version)

    def _next_version(self, kind: str) -> int:
        records = self._require_kind(kind)
        return records[-1].version + 1 if records else 1

    def _append(self, record: ArtifactRecord) -> ArtifactRecord:
        records = self._require_kind(record.kind)
        if records and record.version <= records[-1].version:
            raise StorageError(
                f"{record.kind} version {record.version} is not newer than "
                f"the latest ({records[-1].version})"
            )
        records.append(record)
        try:
            self._save_manifest()
        except BaseException:
            # A failed manifest write must not leave a half-published
            # record behind — the caller's retry re-publishes cleanly.
            records.remove(record)
            raise
        return record
