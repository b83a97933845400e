"""NER tagger: span decoding, training, entity extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.text import (
    NERTagger,
    TAG_B,
    TAG_I,
    TAG_O,
    Vocab,
    extract_entities,
    make_ner_examples,
    spans_from_tags,
    train_ner,
)

from helpers import plain_gelu


class TestSpansFromTags:
    def test_simple_span(self):
        assert spans_from_tags([TAG_O, TAG_B, TAG_I, TAG_O]) == [(1, 2)]

    def test_adjacent_spans(self):
        assert spans_from_tags([TAG_B, TAG_B, TAG_I]) == [(0, 0), (1, 2)]

    def test_span_at_end(self):
        assert spans_from_tags([TAG_O, TAG_B]) == [(1, 1)]

    def test_orphan_inside_tolerated(self):
        assert spans_from_tags([TAG_O, TAG_I, TAG_I, TAG_O]) == [(1, 2)]

    def test_empty(self):
        assert spans_from_tags([]) == []

    @given(st.lists(st.sampled_from([TAG_O, TAG_B, TAG_I]), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_spans_are_sorted_and_disjoint(self, tags):
        spans = spans_from_tags(tags)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2
        for s, e in spans:
            assert 0 <= s <= e < len(tags)
            assert tags[s] in (TAG_B, TAG_I)


class TestExamples:
    def test_gold_tags_align_with_mentions(self, events):
        examples = make_ner_examples(events[:20])
        for (tokens, tags), event in zip(examples, events[:20]):
            assert len(tokens) == len(tags)
            for mention in event.mentions:
                assert tags[mention.start] == TAG_B
                for i in range(mention.start + 1, mention.end + 1):
                    assert tags[i] == TAG_I


class TestTraining:
    def test_training_beats_majority_baseline(self, events):
        examples = make_ner_examples(events[:250])
        vocab = Vocab.build([tokens for tokens, _ in examples])
        tagger = NERTagger(len(vocab), rng=0)
        report = train_ner(tagger, vocab, examples, epochs=3, rng=0)
        majority = np.mean(
            [tag == TAG_O for _, tags in examples for tag in tags]
        )
        baseline = max(majority, 1 - majority)
        assert report.token_accuracy > baseline + 0.05
        assert report.losses[0] > report.losses[-1]

    def test_gelu_skipping_padding_trains_the_same_bits(self, events, monkeypatch):
        examples = make_ner_examples(events[:64])
        vocab = Vocab.build([tokens for tokens, _ in examples])

        def two_steps():
            tagger = NERTagger(len(vocab), rng=0)
            report = train_ner(tagger, vocab, examples, epochs=1, batch_size=32, rng=0)
            return report, b"".join(p.data.tobytes() for p in tagger.parameters())

        report, parameters = two_steps()
        monkeypatch.setattr("repro.nn.transformer.gelu", plain_gelu)
        oracle_report, oracle_parameters = two_steps()
        assert len(report.losses) == 2
        assert report == oracle_report
        assert parameters == oracle_parameters

    def test_empty_examples_raise(self):
        tagger = NERTagger(10, rng=0)
        with pytest.raises(ConfigError):
            train_ner(tagger, Vocab([]), [])


class TestExtraction:
    def test_extraction_links_through_dict(self, events, entity_dict):
        examples = make_ner_examples(events[:250])
        vocab = Vocab.build([tokens for tokens, _ in examples])
        tagger = NERTagger(len(vocab), rng=0)
        train_ner(tagger, vocab, examples, epochs=3, rng=0)
        hits = total = 0
        for event in events[250:280]:
            found = {e.entity_id for e in extract_entities(tagger, vocab, event.tokens, entity_dict)}
            gold = {m.entity_id for m in event.mentions}
            hits += len(found & gold)
            total += len(gold)
        assert hits / total > 0.4  # small model, but clearly above zero

    def test_extraction_only_returns_dict_entities(self, events, entity_dict):
        examples = make_ner_examples(events[:100])
        vocab = Vocab.build([tokens for tokens, _ in examples])
        tagger = NERTagger(len(vocab), rng=0)
        for event in events[:10]:
            for entry in extract_entities(tagger, vocab, event.tokens, entity_dict):
                assert entity_dict.by_id(entry.entity_id) is not None
