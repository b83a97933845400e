"""Version-keyed read-through LRU cache for the online read path.

The serving runtime answers the same marketer queries over and over (the
paper's console re-renders the default two-hop subgraph on every visit), so
expansion results are cached. Every key is scoped by the *artifact version*
that produced the value: a weekly hot-swap changes the active version, which
makes every old entry unreachable — no explicit flush, no risk of serving a
stale expansion for a new graph. Replaced versions are purged eagerly to
bound memory; anything else ages out by LRU.

The cache is thread-safe: the concurrent front end drives ``get``/``put``
from a thread pool, and ``OrderedDict.move_to_end`` + the eviction loop
are multi-step read-modify-writes that corrupt the LRU order and the
counters without mutual exclusion. One lock guards every mutator —
uncontended acquisition costs ~100ns against a warm-hit path of a few µs,
and the lock is held for dict operations only (never while computing an
expansion).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.errors import ConfigError

_MISSING = object()


class VersionedLRUCache:
    """LRU cache whose keys are ``(version, request_key)`` pairs.

    Parameters
    ----------
    capacity:
        Maximum number of cached values; ``0`` disables caching entirely
        (every ``get`` misses, every ``put`` is a no-op).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ConfigError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, Hashable], Any] = OrderedDict()
        # One lock around every mutator (see module docstring).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, version: int, key: Hashable, default: Any = None) -> Any:
        """Look up ``key`` under ``version``; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get((version, key), _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end((version, key))
            return value

    def put(self, version: int, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least-recently-used one."""
        if self.capacity == 0:
            return
        full_key = (version, key)
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)
            self._entries[full_key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def purge_version(self, version: int) -> int:
        """Drop every entry produced under ``version`` (post-swap hygiene)."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == version]
            for k in stale:
                del self._entries[k]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def register_metrics(self, registry, prefix: str = "serving_expansion_cache") -> None:
        """Export this cache's counters through a metrics registry.

        Uses the registry's read-through collector hook: the authoritative
        counts stay on the cache (``get``/``put`` never touch the
        registry) and are copied into ``<prefix>_*`` series whenever the
        exposition or a snapshot is rendered — zero hot-path overhead.
        """
        hits = registry.counter(prefix + "_hits_total", help="Expansion cache hits")
        misses = registry.counter(prefix + "_misses_total", help="Expansion cache misses")
        evictions = registry.counter(
            prefix + "_evictions_total", help="Expansion cache LRU evictions"
        )
        size = registry.gauge(prefix + "_size", help="Cached expansion entries")

        def collect() -> None:
            hits.set_total(self.hits)
            misses.set_total(self.misses)
            evictions.set_total(self.evictions)
            size.set(len(self._entries))

        registry.add_collector(collect)

    def stats(self) -> dict:
        """Operational counters for health endpoints and benchmarks."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
