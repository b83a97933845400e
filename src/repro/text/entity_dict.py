"""The Entity Dict (paper §III-A.1): the bridge between raw content and
unified entities.

Each row is ``(entity, entity type)``. The dict supports exact surface
lookup, longest-match scanning over token streams (a trie), and weekly
updates (``update`` / ``remove``), mirroring the paper's automatically
refreshed expert dictionary of millions of entities across 26 types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import VocabularyError

if TYPE_CHECKING:
    from repro.datasets.world import World


@dataclass(frozen=True)
class EntityEntry:
    """One Entity Dict row."""

    entity_id: int
    name: str  # lowercase surface form
    type_id: int
    type_name: str


class EntityDict:
    """Surface-form → entity mapping with longest-match token scanning."""

    def __init__(self, entries: Iterable[EntityEntry]) -> None:
        self._by_id: dict[int, EntityEntry] = {}
        self._by_name: dict[str, EntityEntry] = {}
        # Token trie: maps first token -> set of full token tuples.
        self._trie: dict[str, list[tuple[str, ...]]] = {}
        self._max_tokens = 1
        for entry in entries:
            self._insert(entry)

    @classmethod
    def from_world(cls, world: World) -> "EntityDict":
        return cls(
            EntityEntry(e.entity_id, e.name.lower(), e.type_id, e.type_name)
            for e in world.entities
        )

    # ------------------------------------------------------------------
    def _insert(self, entry: EntityEntry) -> None:
        if entry.name != entry.name.lower():
            entry = EntityEntry(entry.entity_id, entry.name.lower(), entry.type_id, entry.type_name)
        self._by_id[entry.entity_id] = entry
        self._by_name[entry.name] = entry
        tokens = tuple(entry.name.split())
        self._max_tokens = max(self._max_tokens, len(tokens))
        self._trie.setdefault(tokens[0], []).append(tokens)

    def update(self, entries: Iterable[EntityEntry]) -> int:
        """Weekly refresh: insert or overwrite entries; returns count."""
        n = 0
        for entry in entries:
            self._insert(entry)
            n += 1
        return n

    def remove(self, entity_id: int) -> None:
        entry = self._by_id.pop(entity_id, None)
        if entry is None:
            raise VocabularyError(f"entity id {entity_id} not in Entity Dict")
        self._by_name.pop(entry.name, None)
        tokens = tuple(entry.name.split())
        variants = self._trie.get(tokens[0], [])
        self._trie[tokens[0]] = [v for v in variants if v != tokens]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def __iter__(self) -> Iterator[EntityEntry]:
        return iter(self._by_id.values())

    def by_name(self, name: str) -> EntityEntry:
        key = name.lower()
        if key not in self._by_name:
            raise VocabularyError(f"entity {name!r} not in Entity Dict")
        return self._by_name[key]

    def by_id(self, entity_id: int) -> EntityEntry:
        if entity_id not in self._by_id:
            raise VocabularyError(f"entity id {entity_id} not in Entity Dict")
        return self._by_id[entity_id]

    def get(self, name: str) -> EntityEntry | None:
        return self._by_name.get(name.lower())

    def types(self) -> dict[int, str]:
        """All type ids present, mapped to their names."""
        return {e.type_id: e.type_name for e in self._by_id.values()}

    def entities_of_type(self, type_id: int) -> list[EntityEntry]:
        return [e for e in self._by_id.values() if e.type_id == type_id]

    # ------------------------------------------------------------------
    def scan(self, tokens: list[str]) -> list[tuple[int, int, EntityEntry]]:
        """Longest-match dictionary scan over a token list.

        Returns ``(start, end_inclusive, entry)`` spans, non-overlapping,
        greedy left-to-right. This is both the fast extraction path and the
        surface-form filter applied to NER output.
        """
        tokens = [t.lower() for t in tokens]
        spans: list[tuple[int, int, EntityEntry]] = []
        i = 0
        n = len(tokens)
        while i < n:
            candidates = self._trie.get(tokens[i])
            best: tuple[str, ...] | None = None
            if candidates:
                for variant in candidates:
                    if len(variant) <= n - i and tuple(tokens[i : i + len(variant)]) == variant:
                        if best is None or len(variant) > len(best):
                            best = variant
            if best is not None:
                entry = self._by_name[" ".join(best)]
                spans.append((i, i + len(best) - 1, entry))
                i += len(best)
            else:
                i += 1
        return spans
