"""Entity sequence extractor."""

import numpy as np
import pytest

from repro.datasets.behavior import BehaviorEvent, BehaviorLog
from repro.errors import ConfigError
from repro.text import EntityDict, EntityEntry, EntitySequenceExtractor, NERTagger, Vocab

from helpers import reference_extract_sequences


@pytest.fixture()
def tiny_dict():
    return EntityDict(
        [
            EntityEntry(0, "nba", 0, "sport_event"),
            EntityEntry(1, "tesla", 1, "car"),
        ]
    )


def make_event(user, day, text, mentions=()):
    return BehaviorEvent(user_id=user, day=day, channel="search", text=text, mentions=tuple(mentions))


class TestExtractEvent:
    def test_dictionary_backend_finds_entities(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict)
        event = make_event(0, 1, "watch nba and buy tesla")
        assert extractor.extract_event(event) == [0, 1]

    def test_unknown_backend_raises(self, tiny_dict):
        with pytest.raises(ConfigError):
            EntitySequenceExtractor(tiny_dict, backend="magic")

    def test_ner_backend_requires_model(self, tiny_dict):
        with pytest.raises(ConfigError):
            EntitySequenceExtractor(tiny_dict, backend="ner")


class TestSequences:
    def test_chronological_concatenation(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict)
        events = [
            make_event(7, 5, "tesla"),
            make_event(7, 1, "nba"),
        ]
        seqs = extractor.extract_sequences(events)
        assert seqs[7].entity_ids == [0, 1]  # day 1 before day 5

    def test_window_filters_old_events(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict, window_days=30)
        events = [
            make_event(1, 0, "nba"),
            make_event(1, 50, "tesla"),
        ]
        seqs = extractor.extract_sequences(events, as_of_day=50)
        assert seqs[1].entity_ids == [1]

    def test_as_of_day_defaults_to_max(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict, window_days=5)
        events = [make_event(1, 0, "nba"), make_event(1, 3, "tesla")]
        seqs = extractor.extract_sequences(events)
        assert seqs[1].entity_ids == [0, 1]

    def test_empty_events(self, tiny_dict):
        assert EntitySequenceExtractor(tiny_dict).extract_sequences([]) == {}

    def test_corpus_sequences_drop_singletons(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict)
        events = [make_event(1, 0, "nba"), make_event(2, 0, "nba tesla")]
        corpus = extractor.corpus_sequences(events)
        assert corpus == [[0, 1]]


class TestGoldRecall:
    def test_dictionary_backend_matches_gold_mentions(self, extractor, events):
        hits = total = 0
        for event in events[:100]:
            found = set(extractor.extract_event(event))
            gold = {m.entity_id for m in event.mentions}
            hits += len(found & gold)
            total += len(gold)
        assert hits / total > 0.99


def random_events(seed, n=200, users=5, days=10):
    """Unsorted events with many ``(day, user)`` ties whose texts differ, so
    that reading ties out of log order would change a sequence."""
    rng = np.random.default_rng(seed)
    words = ["nba", "tesla", "watch", "buy", "and"]
    return [
        make_event(
            int(rng.integers(users)),
            int(rng.integers(days)),
            " ".join(rng.choice(words, size=int(rng.integers(1, 5)))),
        )
        for _ in range(n)
    ]


def assert_same_as_reference(extractor, events, as_of_day=None):
    """Equal sequences in equal key order, from a list and from a log, and
    the same skip-gram corpus."""
    expected = reference_extract_sequences(extractor, events, as_of_day)
    for given in (events, BehaviorLog.from_events(events)):
        assert list(extractor.extract_sequences(given, as_of_day).items()) == list(
            expected.items()
        )
    if as_of_day is None:
        assert extractor.corpus_sequences(events) == [
            seq.entity_ids for seq in expected.values() if len(seq) >= 2
        ]
    return expected


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("window_days", [1, 3, 30])
    @pytest.mark.parametrize("as_of_day", [None, 0, 4, 9, 12])
    def test_random_logs_with_ties(self, tiny_dict, seed, window_days, as_of_day):
        events = random_events(seed)
        assert len({(e.day, e.user_id) for e in events}) < len(events)  # ties
        extractor = EntitySequenceExtractor(tiny_dict, window_days=window_days)
        assert_same_as_reference(extractor, events, as_of_day)

    def test_both_window_edges(self, tiny_dict):
        """Window (2, 5]: day 2 and day 6 are out, day 3 and day 5 are in."""
        extractor = EntitySequenceExtractor(tiny_dict, window_days=3)
        events = [
            make_event(1, 6, "nba nba"),
            make_event(1, 5, "tesla"),
            make_event(1, 2, "nba"),
            make_event(1, 3, "nba tesla"),
        ]
        got = assert_same_as_reference(extractor, events, as_of_day=5)
        assert got[1].entity_ids == [0, 1, 1]

    def test_generated_log(self, extractor, events):
        assert_same_as_reference(extractor, list(events))
        assert_same_as_reference(extractor, list(events), as_of_day=10)

    def test_empty_log(self, tiny_dict):
        extractor = EntitySequenceExtractor(tiny_dict)
        empty = BehaviorLog.from_events([])
        assert extractor.extract_sequences(empty) == {}
        assert extractor.extract_sequences(empty, as_of_day=5) == {}
        assert extractor.corpus_sequences(empty) == []

    def test_ner_backend(self, entity_dict, events):
        rows = list(events[:150])
        vocab = Vocab.build([e.tokens for e in rows])
        tagger = NERTagger(len(vocab), rng=0)  # untrained: it still links spans
        extractor = EntitySequenceExtractor(entity_dict, backend="ner", tagger=tagger, vocab=vocab)
        shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        expected = assert_same_as_reference(extractor, shuffled)
        assert sum(len(seq) for seq in expected.values()) > 0
