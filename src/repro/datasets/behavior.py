"""User behavior-log generation (search & visit events) with weekly drift.

Reproduces the role of Alipay's raw data source: every event is a short text
a user produced (a search query or a visited page title) in which entity
names appear. The generator also emits gold token-level mention spans, which
train the NER tagger — the synthetic counterpart of the paper's "manually
labeled data" for BertCRF.

Weekly drift: topic popularity follows a random walk across weeks, shifting
the distribution of the upstream data source. This is the mechanism behind
the paper's Fig. 5(b) accuracy fluctuation that the ensemble stage fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.world import World
from repro.errors import ConfigError
from repro.rng import ensure_rng, normalised_cdf, weighted_choice, weighted_sample_distinct


@dataclass(frozen=True)
class Mention:
    """Token-level gold entity mention inside an event's text."""

    start: int  # first token index (inclusive)
    end: int  # last token index (inclusive)
    entity_id: int


@dataclass(frozen=True)
class BehaviorEvent:
    """One user behavior record (search query or visit title)."""

    user_id: int
    day: int
    channel: str  # "search" | "visit"
    text: str
    mentions: tuple[Mention, ...]

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


@dataclass
class BehaviorConfig:
    """Knobs for the log generator."""

    num_days: int = 30
    #: Probability a user is active on a given day.
    daily_activity: float = 0.55
    #: Mean events for an active user-day (Poisson, min 1).
    events_per_active_day: float = 2.0
    #: How many entities are mentioned per event (1..max).
    max_mentions_per_event: int = 3
    #: Filler words drawn from the user's interest topics per event.
    filler_words: tuple[int, int] = (2, 5)
    #: Scale of the weekly topic-popularity random walk (0 = stationary).
    drift_scale: float = 0.35
    seed: int = 11

    def validate(self) -> None:
        if not 0 < self.daily_activity <= 1:
            raise ConfigError("daily_activity must be in (0, 1]")
        if self.num_days < 1:
            raise ConfigError("num_days must be >= 1")
        if self.max_mentions_per_event < 1:
            raise ConfigError("max_mentions_per_event must be >= 1")


class WeeklyDriftProcess:
    """Random walk over topic log-weights, one step per week."""

    def __init__(self, num_topics: int, scale: float, rng: np.random.Generator) -> None:
        self.num_topics = num_topics
        self.scale = scale
        self._rng = rng
        self._log_weights = np.zeros(num_topics)

    def weights(self) -> np.ndarray:
        w = np.exp(self._log_weights - self._log_weights.max())
        return w / w.sum()

    def step(self) -> np.ndarray:
        """Advance one week; returns the new topic weights."""
        self._log_weights = self._log_weights + self._rng.normal(
            0.0, self.scale, size=self.num_topics
        )
        return self.weights()


class BehaviorLogGenerator:
    """Generate behavior events for every user in a :class:`World`."""

    def __init__(self, world: World, config: BehaviorConfig | None = None) -> None:
        self.world = world
        self.config = config or BehaviorConfig()
        self.config.validate()
        self._drift_rng = ensure_rng(self.config.seed + 1)
        self.drift = WeeklyDriftProcess(
            world.num_topics, self.config.drift_scale, self._drift_rng
        )

    # ------------------------------------------------------------------
    def generate(
        self,
        start_day: int = 0,
        num_days: int | None = None,
        topic_weights: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> list[BehaviorEvent]:
        """Generate events for ``num_days`` days starting at ``start_day``.

        ``topic_weights`` re-weights entity mention probabilities (the drift
        hook); defaults to uniform.
        """
        cfg = self.config
        rng = ensure_rng(rng if rng is not None else cfg.seed)
        num_days = cfg.num_days if num_days is None else num_days
        if topic_weights is None:
            topic_weights = np.ones(self.world.num_topics) / self.world.num_topics

        # Per-entity weight from the topic drift: weight of the topic mixture.
        entity_topics = self.world.entity_topics
        entity_drift = entity_topics @ topic_weights
        base = self.world.popularity * entity_drift  # (E,)
        # The same for every event of this call: the drifted weight of each
        # topic, and each topic's distribution over the entities it mentions.
        topic_weight = entity_topics.T @ base  # (K,)
        if not (np.isfinite(topic_weight).all() and (topic_weight >= 0).all()):
            raise ConfigError("topic weights must be finite and non-negative")
        mention_dists = []  # per topic: (probabilities, their cdf)
        for topic in range(self.world.num_topics):
            probs = base * entity_topics[:, topic] ** 2
            with np.errstate(invalid="ignore", divide="ignore"):
                probs = probs / probs.sum()
            # What ``Generator.choice`` checked on every event, checked once.
            positive = int(np.count_nonzero(probs > 0))
            if (
                not np.isfinite(probs).all()
                or (probs < 0).any()
                or positive < cfg.max_mentions_per_event
            ):
                raise ConfigError(
                    f"topic {topic}: mention weights must be finite and non-negative with "
                    f"at least max_mentions_per_event={cfg.max_mentions_per_event} "
                    f"positive entries (found {positive})"
                )
            mention_dists.append((probs, normalised_cdf(probs)))

        events: list[BehaviorEvent] = []
        for day in range(start_day, start_day + num_days):
            active = rng.random(self.world.num_users) < cfg.daily_activity
            for user_id in np.flatnonzero(active):
                n_events = max(1, int(rng.poisson(cfg.events_per_active_day)))
                for _ in range(n_events):
                    events.append(
                        self._make_event(int(user_id), day, topic_weight, mention_dists, rng)
                    )
        return events

    def generate_week(self, week: int, rng: np.random.Generator | int | None = None) -> list[BehaviorEvent]:
        """Generate one drifted week of data (7 days, advancing the drift)."""
        weights = self.drift.step()
        return self.generate(
            start_day=week * 7, num_days=7, topic_weights=weights, rng=rng
        )

    # ------------------------------------------------------------------
    def _make_event(
        self,
        user_id: int,
        day: int,
        topic_weight: np.ndarray,
        mention_dists: list[tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
    ) -> BehaviorEvent:
        cfg = self.config
        world = self.world

        # Real search/visit sessions are topically coherent: pick the
        # event's topic from the user's interests (re-weighted by the
        # current drift), then mention entities about that topic. This is
        # what gives entity co-occurrence its topical signal.
        topic_probs = world.user_interests[user_id] * topic_weight
        total = topic_probs.sum()
        if not total > 0:
            raise ConfigError(f"user {user_id} has no interest in any weighted topic")
        topic = weighted_choice(rng, topic_probs / total)

        n_mentions = int(rng.integers(1, cfg.max_mentions_per_event + 1))
        probs, cdf = mention_dists[topic]
        entity_ids = weighted_sample_distinct(rng, probs, n_mentions, cdf=cdf)

        lo, hi = cfg.filler_words
        n_filler = int(rng.integers(lo, hi + 1))
        bank = world.topic_words[topic]
        fillers = [bank[int(rng.integers(0, len(bank)))] for _ in range(n_filler)]

        # Interleave: place each entity name at a random slot between fillers.
        slots: list[tuple[str, int | None]] = [(w, None) for w in fillers]
        for eid in entity_ids:
            pos = int(rng.integers(0, len(slots) + 1))
            slots.insert(pos, (world.entities[int(eid)].name.lower(), int(eid)))

        tokens: list[str] = []
        mentions: list[Mention] = []
        for text, eid in slots:
            words = text.split()
            if eid is not None:
                mentions.append(Mention(len(tokens), len(tokens) + len(words) - 1, eid))
            tokens.extend(words)

        channel = "search" if rng.random() < 0.5 else "visit"
        return BehaviorEvent(
            user_id=user_id,
            day=day,
            channel=channel,
            text=" ".join(tokens),
            mentions=tuple(mentions),
        )
