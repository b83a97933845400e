"""Event / Entity Dict serialisation."""

import json

import pytest

from repro.datasets import load_entity_dict, load_events, save_entity_dict, save_events
from repro.errors import ConfigError
from repro.text import EntityDict, EntityEntry


class TestEvents:
    def test_round_trip(self, events, tmp_path):
        path = tmp_path / "events.jsonl"
        n = save_events(events[:50], path)
        assert n == 50
        loaded = load_events(path)
        assert loaded == events[:50]

    def test_mentions_preserved(self, events, tmp_path):
        path = tmp_path / "events.jsonl"
        save_events(events[:10], path)
        loaded = load_events(path)
        for original, restored in zip(events[:10], loaded):
            assert original.mentions == restored.mentions

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_events(tmp_path / "nope.jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id": 1}\nnot json\n')
        with pytest.raises(ConfigError):
            load_events(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user_id": 1, "day": 2}\n')
        with pytest.raises(ConfigError):
            load_events(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"channel": "email"},
            {"user_id": -5},
            {"day": -1},
            {"mentions": [[0, 0, -3]]},
            {"mentions": [[-1, -1, 4]]},  # would tag the last token
            {"mentions": [[1, 0, 4]]},  # inverted: would tag token 1
            {"mentions": [[2, 3, 4]]},  # past the last of three tokens
        ],
        ids=["channel", "user_id", "day", "entity_id", "negative_span", "inverted_span",
             "span_past_end"],
    )
    def test_unusable_row_names_its_line(self, tmp_path, change):
        """A row the rest of the system cannot use fails here, with its
        line, and not later as a wrong tag or an ``IndexError``."""
        good = {"user_id": 1, "day": 2, "channel": "search", "text": "a b c",
                "mentions": [[0, 1, 4]]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
        with pytest.raises(ConfigError, match=f"{path}:2: "):
            load_events(path)

    def test_blank_lines_skipped(self, events, tmp_path):
        path = tmp_path / "events.jsonl"
        save_events(events[:3], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_events(path)) == 3


class TestEntityDict:
    def test_round_trip(self, entity_dict, tmp_path):
        path = tmp_path / "dict.tsv"
        n = save_entity_dict(entity_dict, path)
        assert n == len(entity_dict)
        loaded = load_entity_dict(path)
        assert len(loaded) == len(entity_dict)
        for entry in entity_dict:
            restored = loaded.by_id(entry.entity_id)
            assert restored.name == entry.name
            assert restored.type_id == entry.type_id

    def test_multiword_names_survive(self, tmp_path):
        d = EntityDict([EntityEntry(0, "la lakers", 2, "sport_team")])
        path = tmp_path / "dict.tsv"
        save_entity_dict(d, path)
        loaded = load_entity_dict(path)
        assert loaded.by_name("la lakers").entity_id == 0
        assert loaded.scan(["la", "lakers"])[0][2].entity_id == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("id\tname\n0\tx\n")
        with pytest.raises(ConfigError):
            load_entity_dict(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("entity_id\ttype_id\ttype_name\tname\n0\t1\n")
        with pytest.raises(ConfigError):
            load_entity_dict(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_entity_dict(tmp_path / "nope.tsv")
