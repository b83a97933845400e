"""A user's entity sequence: what the extractor writes and the preference
layer reads (kept apart from the extractor, which needs the NER tagger)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class UserEntitySequence:
    """Chronological entity ids a user interacted with in the window."""

    user_id: int
    entity_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entity_ids)
