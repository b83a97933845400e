"""Version-keyed read-through LRU cache for the online read path.

The serving runtime answers the same marketer queries over and over (the
paper's console re-renders the default two-hop subgraph on every visit), so
expansion results are cached. Every key is scoped by the *artifact version*
that produced the value: a weekly hot-swap changes the active version, which
makes every old entry unreachable — no explicit flush, no risk of serving a
stale expansion for a new graph. Replaced versions are purged eagerly to
bound memory; anything else ages out by LRU.

The cache is thread-safe: the concurrent front end drives ``get``/``put``
from a thread pool, and ``OrderedDict.move_to_end`` + the eviction loop +
the bytes accounting are multi-step read-modify-writes that corrupt the
LRU order and the counters without mutual exclusion. One lock guards
every mutator — uncontended acquisition costs ~100ns against a warm-hit
path of a few µs, and the lock is held for dict operations only (never
while computing an expansion).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.errors import ConfigError

_MISSING = object()

#: Bounds on the size estimator's traversal — entry sizes are resource
#: *accounting*, not billing; a capped walk keeps cold-path puts cheap.
_SIZE_MAX_DEPTH = 8
_SIZE_MAX_ITEMS = 20_000


def approx_value_bytes(value: Any) -> int:
    """Approximate deep size of a cached value, in bytes.

    Walks dicts/sequences and object ``__dict__``/``__slots__`` up to a
    bounded depth and item budget (shared containers are counted once per
    reference, which over-counts shared substructure — acceptable for a
    footprint gauge). Runs on the cache's *put* (miss) path only.
    """
    budget = [_SIZE_MAX_ITEMS]

    def walk(obj: Any, depth: int) -> int:
        if budget[0] <= 0:
            return 0
        budget[0] -= 1
        size = sys.getsizeof(obj, 64)
        if depth >= _SIZE_MAX_DEPTH:
            return size
        if isinstance(obj, dict):
            for k, v in obj.items():
                size += walk(k, depth + 1) + walk(v, depth + 1)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                size += walk(item, depth + 1)
        elif not isinstance(obj, (str, bytes, int, float, bool, type(None))):
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                size += walk(attrs, depth + 1)
            slots = getattr(type(obj), "__slots__", ())
            for name in slots:
                attr = getattr(obj, name, None)
                if attr is not None:
                    size += walk(attr, depth + 1)
        return size

    return walk(value, 0)


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
        # Entry sizes live in a side table so ``get`` (the warm path)
        # returns stored values without unwrapping anything.
        self._sizes: dict[tuple[int, Hashable], int] = {}
        # One lock around every mutator (see module docstring). The size
        # estimation on ``put`` runs *outside* it — only the dict surgery
        # is serialized.
        self._lock = threading.Lock()
        self.approx_bytes = 0
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
        entry_bytes = approx_value_bytes(value)  # bounded walk, lock-free
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)
                self.approx_bytes -= self._sizes.get(full_key, 0)
            self._entries[full_key] = value
            self._sizes[full_key] = entry_bytes
            self.approx_bytes += entry_bytes
            while len(self._entries) > self.capacity:
                evicted_key, _ = self._entries.popitem(last=False)
                self.approx_bytes -= self._sizes.pop(evicted_key, 0)
                self.evictions += 1

    def purge_version(self, version: int) -> int:
        """Drop every entry produced under ``version`` (post-swap hygiene)."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == version]
            for k in stale:
                del self._entries[k]
                self.approx_bytes -= self._sizes.pop(k, 0)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.approx_bytes = 0

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
        entry_bytes = registry.gauge(
            prefix + "_bytes", help="Approximate bytes held by cached entries"
        )

        def collect() -> None:
            hits.set_total(self.hits)
            misses.set_total(self.misses)
            evictions.set_total(self.evictions)
            size.set(len(self._entries))
            entry_bytes.set(self.approx_bytes)

        registry.add_collector(collect)

    def stats(self) -> dict:
        """Operational counters for health endpoints and benchmarks."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "approx_bytes": self.approx_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
