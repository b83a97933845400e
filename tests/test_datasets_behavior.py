"""Behavior-log generation and weekly drift."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.datasets import (
    BehaviorConfig,
    BehaviorEvent,
    BehaviorLog,
    BehaviorLogGenerator,
    Mention,
    WeeklyDriftProcess,
    World,
    WorldConfig,
    load_events,
    save_events,
)
from repro.errors import ConfigError


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BehaviorConfig(daily_activity=0.0).validate()
        with pytest.raises(ConfigError):
            BehaviorConfig(num_days=0).validate()
        with pytest.raises(ConfigError):
            BehaviorConfig(max_mentions_per_event=0).validate()


class TestEvents:
    def test_days_within_range(self, world):
        generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=5, seed=1))
        events = generator.generate(start_day=10, num_days=5)
        days = {e.day for e in events}
        assert days <= set(range(10, 15))

    def test_mentions_reference_actual_tokens(self, events, world):
        for event in events[:200]:
            tokens = event.tokens
            for mention in event.mentions:
                surface = " ".join(tokens[mention.start : mention.end + 1])
                assert surface == world.entities[mention.entity_id].name.lower()

    def test_channels_valid(self, events):
        assert {e.channel for e in events} <= {"search", "visit"}

    def test_every_event_has_a_mention(self, events):
        assert all(len(e.mentions) >= 1 for e in events)

    def test_mention_count_bounded(self, world):
        config = BehaviorConfig(num_days=3, max_mentions_per_event=2, seed=2)
        events = BehaviorLogGenerator(world, config).generate()
        assert all(len(e.mentions) <= 2 for e in events)

    def test_deterministic_given_seed(self, world):
        a = BehaviorLogGenerator(world, BehaviorConfig(num_days=3, seed=4)).generate()
        b = BehaviorLogGenerator(world, BehaviorConfig(num_days=3, seed=4)).generate()
        assert [e.text for e in a[:20]] == [e.text for e in b[:20]]

    @pytest.mark.parametrize(
        "config, count, sha256",
        [
            (
                BehaviorConfig(num_days=21, seed=5),
                4731,
                "efda29a2286840ffcdfcb5c66ddf040e8d225633d2aac8922c721740ff2c357e",
            ),
            (  # the end-to-end benchmark's BEHAVIOR_CONFIG
                BehaviorConfig(num_days=28, daily_activity=0.03, events_per_active_day=1.0, seed=11),
                199,
                "3c2b5c6e8d78457a4958dce07f5af9f1eee19b70b6b8a666eb9dd902d204ad90",
            ),
        ],
        ids=["dense", "benchmark"],
    )
    def test_event_stream_is_pinned(self, world, config, count, sha256):
        """The base log plus two drifted weeks, hashed in full: a change to
        the RNG call sequence, or to one bit of a probability vector handed
        to it, moves the hash."""
        generator = BehaviorLogGenerator(world, config)
        events = generator.generate() + generator.generate_week(1) + generator.generate_week(2)
        digest = hashlib.sha256()
        for e in events:
            mentions = tuple((m.start, m.end, m.entity_id) for m in e.mentions)
            digest.update(repr((e.user_id, e.day, e.channel, e.text, mentions)).encode())
        assert len(events) == count
        assert digest.hexdigest() == sha256

    @pytest.mark.parametrize("seed", [5, 12])
    @pytest.mark.parametrize("tiny", [False, True], ids=["150-entities", "5-entities"])
    def test_stream_equals_the_generator_choice_oracle(self, world, monkeypatch, seed, tiny):
        """The helpers run ``Generator.choice``'s algorithm, so swapping
        ``choice`` back in (the oracle, kept here) changes no event."""
        if tiny:  # three mentions out of five entities: duplicates, so redraws
            world = World(WorldConfig(num_topics=2, num_entities=5, num_users=30, seed=9))
        config = BehaviorConfig(num_days=6, max_mentions_per_event=3, seed=seed)

        def three_calls():
            generator = BehaviorLogGenerator(world, config)
            return generator.generate() + generator.generate_week(1) + generator.generate_week(2)

        redraws = []

        class CountingRng:
            """Counts the batches of doubles one distinct-sample call draws."""

            def __init__(self, rng):
                self.rng, self.batches = rng, 0

            def random(self, size):
                self.batches += 1
                return self.rng.random(size)

        def spy(rng, p, size, cdf=None):
            counting = CountingRng(rng)
            found = rng_mod.weighted_sample_distinct(counting, p, size, cdf=cdf)
            redraws.append(counting.batches - 1)
            return found

        monkeypatch.setattr("repro.datasets.behavior.weighted_sample_distinct", spy)
        events = three_calls()
        monkeypatch.setattr(
            "repro.datasets.behavior.weighted_choice",
            lambda rng, p: int(rng.choice(len(p), p=p)),
        )
        monkeypatch.setattr(
            "repro.datasets.behavior.weighted_sample_distinct",
            lambda rng, p, size, cdf=None: rng.choice(len(p), size=size, replace=False, p=p),
        )
        assert events == three_calls()
        assert len(events) == len(redraws) > 100
        if tiny:
            assert sum(r > 0 for r in redraws) > 10

    def test_too_few_mentionable_entities_is_a_config_error(self):
        """Checked once per call: ``choice`` raised per event, and the bare
        redraw loop would not end."""
        world = World(WorldConfig(num_topics=2, num_entities=5, num_users=10, seed=9))
        world.entity_topics[2:, 1] = 0.0  # topic 1 can mention two entities
        generator = BehaviorLogGenerator(world, BehaviorConfig(max_mentions_per_event=3))
        with pytest.raises(ConfigError, match="topic 1"):
            generator.generate(num_days=1)
        BehaviorLogGenerator(world, BehaviorConfig(max_mentions_per_event=2)).generate(num_days=1)

    def test_unusable_topic_weights_are_a_config_error(self, world):
        generator = BehaviorLogGenerator(world, BehaviorConfig())
        for bad in (-1.0, np.nan):
            weights = np.ones(world.num_topics)
            weights[0] = bad
            with pytest.raises(ConfigError):
                generator.generate(num_days=1, topic_weights=weights)

    def test_users_mention_entities_they_like(self, world, events):
        # Users should interact with their top topics far more than chance.
        affinity = world.user_entity_affinity()
        scores = [affinity[e.user_id, m.entity_id] for e in events[:300] for m in e.mentions]
        assert np.mean(scores) > affinity.mean() * 1.5

    def test_events_topically_coherent(self, world, events):
        # Two mentions in the same event usually share a primary topic.
        agree = []
        for event in events:
            topics = [world.entities[m.entity_id].primary_topic for m in event.mentions]
            if len(topics) >= 2:
                agree.append(len(set(topics)) == 1)
        assert np.mean(agree) > 0.6


class TestBehaviorLog:
    def test_footprint_per_event(self, world):
        """The log holds its columns, not an object graph per event (a list
        of event objects held about 480 bytes per event)."""
        generator = BehaviorLogGenerator(world, BehaviorConfig(num_days=21, seed=5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = generator.generate()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert isinstance(log, BehaviorLog) and len(log) > 2000
        assert held / len(log) <= 128, held / len(log)

    def test_sequence_contract(self, events):
        rows = list(events)
        assert len(events) == len(rows)
        assert events[-1] == rows[-1] and events[-len(rows)] == rows[0]
        for bad in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                events[bad]
        part = events[10:40:3]
        assert isinstance(part, BehaviorLog)
        assert list(part) == rows[10:40:3]
        assert list(events[5:5]) == [] and len(events[5:5].mentions) == 0
        assert events[:30] + events[30:70] == events[:70]
        assert list(events[60:70] + events[:5]) == rows[60:70] + rows[:5]
        assert events[:10] != events[1:11]
        assert events[:10] != rows[:10]  # a log is not a list
        assert BehaviorLog.from_events(rows) == events
        with pytest.raises(ValueError):
            events.days[0] = 1  # immutable columns

    def test_rows_are_python_ints_and_strs(self, events):
        """The pinned stream hash is taken over ``repr``: numpy scalars
        would print as ``np.int32(5)``."""
        event = events[3]
        assert isinstance(event, BehaviorEvent)
        assert {type(event.user_id), type(event.day)} == {int}
        assert type(event.channel) is str and type(event.text) is str
        assert event.mentions and all(isinstance(m, Mention) for m in event.mentions)
        assert {type(v) for m in event.mentions for v in (m.start, m.end, m.entity_id)} == {int}
        assert "np." not in repr(event)

    def test_save_load_round_trip_is_equal(self, events, tmp_path):
        path = tmp_path / "events.jsonl"
        assert save_events(events, path) == len(events)
        assert load_events(path) == events


class TestDrift:
    def test_weights_are_distribution(self, world):
        drift = WeeklyDriftProcess(world.num_topics, 0.3, np.random.default_rng(0))
        for _ in range(5):
            w = drift.step()
            assert w.shape == (world.num_topics,)
            assert w.sum() == pytest.approx(1.0)

    def test_zero_scale_is_stationary(self, world):
        drift = WeeklyDriftProcess(world.num_topics, 0.0, np.random.default_rng(0))
        w1 = drift.step()
        w2 = drift.step()
        np.testing.assert_allclose(w1, w2)

    def test_drift_changes_entity_mix(self, world):
        generator = BehaviorLogGenerator(world, BehaviorConfig(seed=3, drift_scale=1.5))
        week0 = generator.generate_week(0, rng=0)
        for _ in range(5):
            generator.drift.step()
        week9 = generator.generate_week(9, rng=0)

        def topic_histogram(events):
            counts = np.zeros(world.num_topics)
            for e in events:
                for m in e.mentions:
                    counts[world.entities[m.entity_id].primary_topic] += 1
            return counts / counts.sum()

        h0 = topic_histogram(week0)
        h9 = topic_histogram(week9)
        assert np.abs(h0 - h9).sum() > 0.1  # distribution moved

    def test_generate_week_day_offsets(self, world):
        generator = BehaviorLogGenerator(world, BehaviorConfig(seed=3))
        week2 = generator.generate_week(2, rng=0)
        days = {e.day for e in week2}
        assert days <= set(range(14, 21))
