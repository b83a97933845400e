"""Per-generation resource accounting.

A :class:`ResourceAccountant` exports per-generation gauges (artifact bytes
on disk, artifact counts) through read-time metric collectors — zero cost
on any serving path. Where a *request's* time went is the request record's
business (:mod:`repro.obs.context`).
"""

from __future__ import annotations

import os


def _tree_bytes(path: str) -> int:
    """Total file bytes under ``path`` (a file or a directory)."""
    try:
        if os.path.isfile(path):
            return os.path.getsize(path)
        total = 0
        for root, _dirs, files in os.walk(path):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
        return total
    except OSError:
        return 0


class ResourceAccountant:
    """Per-generation resource gauges, exported via read-time collectors.

    Walks the artifact registry's records at *read-out* time and exports:

    * ``artifact_disk_bytes{kind}`` — bytes on disk across that kind's
      retained generations;
    * ``artifact_generations{kind}`` — retained generation count.

    Artifact directories are immutable once published, so byte totals are
    cached per path and each directory is walked once per process.
    """

    def __init__(self, metrics, registry=None, kinds=("graph", "preferences")) -> None:
        self._registry = registry
        self._kinds = tuple(kinds)
        self._bytes_cache: dict[str, int] = {}
        self._metrics = metrics
        if getattr(metrics, "enabled", False):
            metrics.add_collector(self._collect)

    def _path_bytes(self, path) -> int:
        key = str(path)
        cached = self._bytes_cache.get(key)
        if cached is None:
            cached = self._bytes_cache[key] = _tree_bytes(key)
        return cached

    def usage(self) -> dict:
        """JSON-safe per-kind usage summary (the ``/profile`` payload)."""
        out: dict = {"artifacts": {}}
        if self._registry is None:
            return out
        for kind in self._kinds:
            try:
                records = self._registry.records(kind)
            except Exception:
                records = []
            out["artifacts"][kind] = {
                "generations": len(records),
                "disk_bytes": sum(self._path_bytes(record.path) for record in records),
            }
        return out

    def _collect(self) -> None:
        metrics = self._metrics
        usage = self.usage()
        for kind, stats in usage["artifacts"].items():
            metrics.gauge(
                "artifact_disk_bytes",
                help="Bytes on disk across retained artifact generations",
                kind=kind,
            ).set(stats["disk_bytes"])
            metrics.gauge(
                "artifact_generations",
                help="Retained artifact generations",
                kind=kind,
            ).set(stats["generations"])


__all__ = ["ResourceAccountant"]
