"""Versioned artifact registry — the offline → online handoff contract.

The paper's producers run on their own cadence (weekly TRMP graph, daily
preference index) and the online stage must never observe a half-written
artifact. The registry makes that explicit: every publish creates an
immutable, named, versioned record; readers open artifacts *by version* and
the record list only ever grows. Two artifact kinds exist today:

* ``graph`` — the week's :class:`~repro.graph.EntityGraph`, frozen to a
  ``graph-csr-NNNNNN/`` :class:`~repro.graph.csr.CSRGraph` directory under
  the registry root;
* ``preferences`` — a built :class:`~repro.preference.PreferenceStore`,
  frozen to a ``preferences-NNNNNN/`` directory.

Crash safety (the registry root is the system's durable state):

* every durable write — preference artifacts, the record manifest
  (``registry.json``), drift reports — goes through temp file + fsync +
  atomic rename, so a torn write leaves the previous complete file;
* directory artifacts carry per-array SHA-256 checksums in their
  ``meta.json`` and the ``meta.json`` digest in their record, written at
  publish. An open is the proof: it checks the record's digest, reads every
  array once into process memory and checks its checksum from that buffer,
  so what serves is what was proven, whatever later happens to the files.
  Startup opens every record the same way and discards what it read;
* one recovery rule for every kind: an artifact that fails validation is
  *quarantined* (moved into a ``quarantine/`` directory beside it) and its
  record dropped instead of serving bad bytes — ``latest()`` then resolves
  to the previous good generation, at startup as well as on open, so a
  corrupt artifact on disk degrades the catalogue rather than crashing
  the process;
* a publish that raises removes the generation directory it was writing
  before the error reaches its caller, so a failed write leaves no
  directory without a record (a killed process still can; the next
  publish of that version writes over it);
* per-stage refresh checkpoints live in a sibling
  :class:`~repro.resilience.CheckpointStore` under ``checkpoints/``.

Drift reports ride alongside: :meth:`ArtifactRegistry.attach_drift_report`
files a :class:`~repro.obs.drift.DriftReport` under the artifact version it
measured, persisted as ``drift-{kind}-{version:06d}.json``, so "what
changed when we swapped to v7?" survives a process restart.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CorruptArtifactError, StorageError
from repro.obs.drift import DriftReport
from repro.graph.csr import CSRGraph, csr_meta_digest
from repro.graph.entity_graph import EntityGraph
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
#: The directory name of generation ``v`` is ``f"{prefix}{v:06d}"``.
DIRECTORY_PREFIX = {KIND_GRAPH: "graph-csr-", KIND_PREFERENCES: "preferences-"}


@dataclass(frozen=True)
class ArtifactRecord:
    """One immutable published artifact: what it is and where it lives.

    ``path`` is the artifact directory and ``checksum`` the digest of its
    ``meta.json``. A manifest written with the retired ``source`` /
    ``format`` keys still loads: :meth:`from_dict` reads the keys it knows.
    """

    kind: str
    version: int
    tag: str
    path: str
    edges: int | None = None
    checksum: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "tag": self.tag,
            "path": self.path,
            "edges": self.edges,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArtifactRecord":
        return cls(
            kind=data["kind"],
            version=int(data["version"]),
            tag=data["tag"],
            path=data["path"],
            edges=data.get("edges"),
            checksum=data.get("checksum"),
        )


@contextmanager
def removed_on_failure(directory: Path):
    """Remove ``directory``, a generation being written, if the block
    raises; the error then reaches the caller unchanged."""
    try:
        yield
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise


@dataclass(frozen=True)
class PreferenceSlot:
    """A reserved preference generation: its version, directory and tag."""

    version: int
    directory: Path
    tag: str


class ArtifactRegistry:
    """Append-only catalogue of published serving artifacts.

    Parameters
    ----------
    root:
        Directory of the durable state: artifact directories, the record
        manifest, drift reports and refresh checkpoints.
    faults:
        Optional :class:`~repro.resilience.FaultInjector`; when given, the
        ``registry.write`` / ``registry.read`` seams fire on every durable
        write / artifact open (scripted failures for the chaos suite).
    """

    def __init__(
        self,
        root: str | Path,
        faults: FaultInjector | None = None,
    ) -> None:
        self.root = Path(root)
        self._faults = faults
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: dict[str, list[ArtifactRecord]] = {
            KIND_GRAPH: [],
            KIND_PREFERENCES: [],
        }
        self._drift: dict[tuple[str, int], DriftReport] = {}
        #: Artifacts moved aside because they failed validation — each entry
        #: is ``{kind, version, path, reason}``. Surfaced in ``health()``.
        self.quarantined: list[dict] = []
        self.checkpoints = CheckpointStore(self.root / "checkpoints", faults=faults)
        self._load_manifest()
        self._load_drift_reports()

    # ------------------------------------------------------------------
    # Publish (producer side)
    # ------------------------------------------------------------------
    def publish_graph(
        self, graph: EntityGraph, tag: str | None = None
    ) -> ArtifactRecord:
        """Register a weekly graph artifact.

        The graph is frozen to ``graph-csr-NNNNNN/`` under the registry
        root; the ``meta.json`` digest goes into the record, pinning the
        directory.
        """
        self._check_faults("registry.write")
        version = self._next_version(KIND_GRAPH)
        directory = self.root / f"{DIRECTORY_PREFIX[KIND_GRAPH]}{version:06d}"
        with removed_on_failure(directory):
            CSRGraph.from_entity_graph(graph).save(directory)
            return self._append(
                ArtifactRecord(
                    kind=KIND_GRAPH, version=version, tag=tag or f"graph-v{version}",
                    path=str(directory), edges=graph.num_edges,
                    checksum=csr_meta_digest(directory),
                )
            )

    def publish_preferences(
        self, store: PreferenceStore, tag: str | None = None
    ) -> ArtifactRecord:
        """Register a daily preference artifact built in this process.

        The store is written to the next ``preferences-NNNNNN/``: every
        array through the atomic temp + rename path with its SHA-256
        recorded in ``meta.json``, which lands last; the ``meta.json``
        digest goes into the record, pinning the whole directory.
        """
        slot = self.reserve_preferences(tag)
        store.version_tag = slot.tag
        with removed_on_failure(slot.directory):
            store.save_memmap(slot.directory)
            return self.commit_preferences(slot)

    def reserve_preferences(self, tag: str | None = None) -> PreferenceSlot:
        """The directory and tag the next preference generation goes to.

        Whoever writes it — :meth:`publish_preferences`, or the daily
        refresh's stage worker — hands the slot to
        :meth:`commit_preferences` once ``meta.json`` has landed.
        """
        self._check_faults("registry.write")
        version = self._next_version(KIND_PREFERENCES)
        directory = self.root / f"{DIRECTORY_PREFIX[KIND_PREFERENCES]}{version:06d}"
        return PreferenceSlot(version, directory, tag or f"daily-{version}")

    def commit_preferences(self, slot: PreferenceSlot) -> ArtifactRecord:
        """Append the record of a written slot, pinning its ``meta.json``."""
        return self._append(
            ArtifactRecord(
                kind=KIND_PREFERENCES, version=slot.version, tag=slot.tag,
                path=str(slot.directory),
                checksum=file_digest(slot.directory / "meta.json"),
            )
        )

    # ------------------------------------------------------------------
    # Open (serving side)
    # ------------------------------------------------------------------
    def open_graph(self, version: int | None = None) -> CSRGraph:
        """Open a published graph artifact, every array proven into memory.

        An artifact that fails the proof is quarantined and its record
        dropped before :class:`~repro.errors.CorruptArtifactError` is
        raised — the next ``open_graph()`` resolves to the previous good
        version.
        """
        self._check_faults("registry.read")
        return self._open_directory(self._resolve(KIND_GRAPH, version))

    def open_preferences(self, version: int | None = None) -> PreferenceStore:
        """Open a published preference artifact; same contract as
        :meth:`open_graph`."""
        self._check_faults("registry.read")
        return self._open_directory(self._resolve(KIND_PREFERENCES, version))

    # ------------------------------------------------------------------
    # Proof + quarantine
    # ------------------------------------------------------------------
    def _open_directory(self, record: ArtifactRecord):
        """:meth:`_prove` the record, or quarantine it and raise."""
        try:
            return self._prove(record)
        except StorageError as error:
            self.quarantine(record, f"artifact unreadable: {error}")
            raise CorruptArtifactError(
                f"{record.kind} artifact v{record.version} quarantined: {error}"
            ) from error

    @staticmethod
    def _prove(record: ArtifactRecord) -> CSRGraph | PreferenceStore:
        """The one open of a directory artifact: the ``meta.json`` digest
        the record pinned, then every array read and checked against it."""
        directory = Path(record.path)
        if record.checksum is not None and (
            not (directory / "meta.json").exists()
            or file_digest(directory / "meta.json") != record.checksum
        ):
            raise CorruptArtifactError("manifest digest mismatch")
        if record.kind == KIND_GRAPH:
            return CSRGraph.load(directory)
        return PreferenceStore.load_memmap(directory)

    def quarantine(self, record: ArtifactRecord, reason: str) -> None:
        """Move the bad artifact aside, drop the record, keep the evidence:
        the one recovery rule, for a generation that fails to open, fails
        its startup proof, or fails under the activation check.

        The directory moves into a ``quarantine/`` sibling on the same
        filesystem, so the rename cannot fail half way.
        """
        quarantined_path = None
        path = Path(record.path) if record.path else None
        if path is not None and path.exists():
            qdir = path.parent / QUARANTINE_DIR
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
        candidate may be measured again).
        """
        self._require_kind(report.kind)
        self._drift[(report.kind, report.new_version)] = report
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
    # Manifest persistence (the catalogue survives restarts)
    # ------------------------------------------------------------------
    def _save_manifest(self) -> None:
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
        """Reload the published catalogue; prove every artifact.

        Every artifact directory is opened (and the arrays discarded), and
        the ones that fail are quarantined — startup never crashes on a
        torn artifact or on one written in a format this build no longer
        serves.
        """
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
                try:
                    self._prove(record)
                except (StorageError, TypeError) as error:
                    corrupt.append((record, f"artifact invalid: {error}"))
                    continue
                self._records[kind].append(record)
        for record, reason in corrupt:
            self.quarantine(record, reason)

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
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
        """One past every version of ``kind`` ever handed out in this root:
        the live records, the generations quarantined by this process and
        the directories earlier processes left under ``quarantine/``. A
        quarantined number is never reused, so versions strictly increase
        and the evidence of one refusal is not overwritten by the next."""
        used = [record.version for record in self._require_kind(kind)]
        used += [
            entry["version"] for entry in self.quarantined
            if entry["kind"] == kind and entry["version"] is not None
        ]
        prefix = DIRECTORY_PREFIX[kind]
        for path in (self.root / QUARANTINE_DIR).glob(f"{prefix}*"):
            suffix = path.name[len(prefix):]
            if suffix.isdigit():
                used.append(int(suffix))
        return max(used, default=0) + 1

    def _append(self, record: ArtifactRecord) -> ArtifactRecord:
        records = self._require_kind(record.kind)
        records.append(record)
        try:
            self._save_manifest()
        except BaseException:
            # A failed manifest write must not leave a half-published
            # record behind: the error reaches the caller, and the next
            # publish writes that version afresh.
            records.remove(record)
            raise
        return record
