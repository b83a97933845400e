"""Marketer feedback loop (paper §II-B Remark).

Relations the marketers select during operation are recorded as
high-confidence relations and fed back into the next weekly TRMP training
run as extra positive supervision.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FeedbackRecorder:
    """Accumulates marketer-confirmed relations between weekly refreshes.

    Request threads record while a refresh reads, so every access holds
    the lock.
    """

    _pairs: set[tuple[int, int]] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_relation(self, u: int, v: int) -> None:
        if u == v:
            return
        with self._lock:
            self._pairs.add((min(int(u), int(v)), max(int(u), int(v))))

    def record_expansion_choice(self, seed_id: int, chosen_ids: list[int]) -> None:
        """A marketer keeping entity ``c`` for seed ``s`` confirms ⟨s, c⟩."""
        for c in chosen_ids:
            self.record_relation(seed_id, c)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pairs)

    def pairs(self) -> np.ndarray:
        """Confirmed relations as an ``(n, 2)`` array (empty-safe)."""
        with self._lock:
            if not self._pairs:
                return np.empty((0, 2), dtype=np.int64)
            return np.asarray(sorted(self._pairs), dtype=np.int64)

    def retire(self, pairs: np.ndarray) -> None:
        """Forget exactly ``pairs`` — the ones a published week trained on.

        The weekly job reads :meth:`pairs`, trains, publishes, and only then
        retires what it read: a refresh that crashes first keeps them for
        its resume, and pairs recorded meanwhile stay for next week.
        """
        with self._lock:
            self._pairs.difference_update(map(tuple, np.asarray(pairs).tolist()))
