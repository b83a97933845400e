"""CheckpointStore — per-stage refresh checkpoints with content digests.

The weekly TRMP refresh is minutes of work at reproduction scale and hours
at paper scale; a crash must not discard completed stages. Each stage's
output is checkpointed under a *run id* the moment it finishes, so a
re-run with ``resume=True`` loads every completed stage and recomputes
only from the failure point.

Each stage is one pickle file under ``root`` written through
:func:`~repro.resilience.atomic.atomic_write_bytes` (temp + fsync +
rename), with its SHA-256 digest recorded in a per-run manifest that is
itself written atomically. Digests are re-validated on load — a flipped or
truncated checkpoint raises :class:`~repro.errors.CheckpointError` rather
than resuming from bad bytes.

Digests double as the idempotency proof: two runs of the same seeded
refresh produce byte-identical stage payloads, so their digests match.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import CheckpointError
from repro.resilience.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    pickle_bytes,
    sha256_hex,
    unpickle_bytes,
)
from repro.resilience.faults import FaultInjector


class CheckpointStore:
    def __init__(
        self,
        root: str | Path,
        faults: FaultInjector | None = None,
    ) -> None:
        self.root = Path(root)
        self._faults = faults
        self._manifests: dict[str, dict] = {}
        self.writes = 0
        self.loads = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self._load_manifests()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, run_id: str, stage: str, payload: object) -> str:
        """Checkpoint one completed stage; returns its content digest."""
        if self._faults is not None:
            self._faults.check("checkpoint.write")
        data = pickle_bytes(payload)
        digest = sha256_hex(data)
        manifest = self._manifests.setdefault(run_id, {"stages": {}})
        atomic_write_bytes(self.root / run_id / f"{stage}.ckpt", data)
        manifest["stages"][stage] = {"digest": digest, "bytes": len(data)}
        self._save_manifest(run_id)
        self.writes += 1
        return digest

    # ------------------------------------------------------------------
    # Resume side
    # ------------------------------------------------------------------
    def has(self, run_id: str, stage: str) -> bool:
        return stage in self._manifests.get(run_id, {}).get("stages", {})

    def digest(self, run_id: str, stage: str) -> str | None:
        entry = self._manifests.get(run_id, {}).get("stages", {}).get(stage)
        return None if entry is None else entry["digest"]

    def get(self, run_id: str, stage: str) -> object:
        """Load a checkpoint, proving its digest first."""
        if self._faults is not None:
            self._faults.check("checkpoint.read")
        entry = self._manifests.get(run_id, {}).get("stages", {}).get(stage)
        if entry is None:
            raise CheckpointError(f"no checkpoint for run {run_id!r} stage {stage!r}")
        path = self.root / run_id / f"{stage}.ckpt"
        try:
            data = path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                f"checkpoint file unreadable: {path} ({error})"
            ) from error
        if sha256_hex(data) != entry["digest"]:
            raise CheckpointError(
                f"checkpoint digest mismatch for run {run_id!r} stage {stage!r} "
                "(truncated or corrupted write)"
            )
        self.loads += 1
        return unpickle_bytes(data)

    def completed_stages(self, run_id: str) -> list[str]:
        """Stages checkpointed for the run, in completion order."""
        return list(self._manifests.get(run_id, {}).get("stages", {}))

    def runs(self) -> list[str]:
        return sorted(self._manifests)

    def clear_run(self, run_id: str) -> None:
        """Drop a finished run's checkpoints (space, not correctness)."""
        self._manifests.pop(run_id, None)
        run_dir = self.root / run_id
        if run_dir.exists():
            for path in run_dir.iterdir():
                path.unlink()
            run_dir.rmdir()

    # ------------------------------------------------------------------
    def _save_manifest(self, run_id: str) -> None:
        atomic_write_text(
            self.root / run_id / "manifest.json",
            json.dumps(self._manifests[run_id], indent=2, sort_keys=False),
        )

    def _load_manifests(self) -> None:
        for path in sorted(self.root.glob("*/manifest.json")):
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
                manifest["stages"]  # shape check
            except (ValueError, KeyError):
                # A torn manifest means the run's bookkeeping is gone; its
                # stages will be recomputed — never trusted blindly.
                continue
            self._manifests[path.parent.name] = manifest
