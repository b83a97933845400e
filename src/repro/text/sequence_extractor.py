"""Entity sequence extractor (paper §III-A, Fig. 3).

Collects a window of user behavior events (default 30 days), extracts the
entities mentioned in each event, and concatenates them chronologically into
one entity sequence per user. Two extraction backends:

* ``"dictionary"`` — longest-match Entity Dict scan (fast; the default for
  pipeline runs and benchmarks);
* ``"ner"`` — the trained transformer+CRF tagger followed by Entity Dict
  alignment (the faithful BertCRF path; used by the NER experiments).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.datasets.behavior import BehaviorEvent, BehaviorLog
from repro.errors import ConfigError
from repro.text.entity_dict import EntityDict
from repro.text.ner import NERTagger, extract_entities
from repro.text.user_sequence import UserEntitySequence
from repro.text.vocab import Vocab


class EntitySequenceExtractor:
    """Turn raw behavior events into per-user entity sequences."""

    def __init__(
        self,
        entity_dict: EntityDict,
        backend: str = "dictionary",
        tagger: NERTagger | None = None,
        vocab: Vocab | None = None,
        window_days: int = 30,
    ) -> None:
        if backend not in ("dictionary", "ner"):
            raise ConfigError(f"unknown extraction backend {backend!r}")
        if backend == "ner" and (tagger is None or vocab is None):
            raise ConfigError("the 'ner' backend needs a trained tagger and a vocab")
        self.entity_dict = entity_dict
        self.backend = backend
        self.tagger = tagger
        self.vocab = vocab
        self.window_days = window_days

    # ------------------------------------------------------------------
    def extract_event(self, event: BehaviorEvent) -> list[int]:
        """Entity ids mentioned in one event, in token order."""
        return self._extract_tokens(event.tokens)

    def _extract_tokens(self, tokens: list[str]) -> list[int]:
        if self.backend == "dictionary":
            return [entry.entity_id for _, _, entry in self.entity_dict.scan(tokens)]
        entries = extract_entities(self.tagger, self.vocab, tokens, self.entity_dict)
        return [entry.entity_id for entry in entries]

    def extract_sequences(
        self,
        events: BehaviorLog | Iterable[BehaviorEvent],
        as_of_day: int | None = None,
    ) -> dict[int, UserEntitySequence]:
        """Per-user chronological entity sequences within the day window.

        ``as_of_day`` defaults to the max day present; only events in
        ``(as_of_day - window_days, as_of_day]`` are used. Events are read
        by ``(day, user_id)``, ties in log order, and the dict's insertion
        order is the order in which users first appear in that reading
        (skip-gram trains in this order, so it is part of the result).
        Events that are not a :class:`BehaviorLog` are converted to one first.
        """
        log = events if isinstance(events, BehaviorLog) else BehaviorLog.from_events(events)
        if not len(log):
            return {}
        days = log.days
        if as_of_day is None:
            as_of_day = int(days.max())
        lo = as_of_day - self.window_days

        order = np.lexsort((log.user_ids, days))  # stable, so ties keep log order
        order = order[(days[order] > lo) & (days[order] <= as_of_day)]
        sequences: dict[int, UserEntitySequence] = {}
        for row, user_id in zip(order.tolist(), log.user_ids[order].tolist()):
            seq = sequences.setdefault(user_id, UserEntitySequence(user_id))
            seq.entity_ids.extend(self._extract_tokens(log.text_at(row).split()))
        return sequences

    def corpus_sequences(self, events: BehaviorLog | Iterable[BehaviorEvent]) -> list[list[int]]:
        """All user sequences as plain id lists (skip-gram training input)."""
        return [
            seq.entity_ids
            for seq in self.extract_sequences(events).values()
            if len(seq) >= 2
        ]
