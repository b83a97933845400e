"""User behavior-log generation (search & visit events) with weekly drift.

Reproduces the role of Alipay's raw data source: every event is a short text
a user produced (a search query or a visited page title) in which entity
names appear. The generator also emits gold token-level mention spans, which
train the NER tagger — the synthetic counterpart of the paper's "manually
labeled data" for BertCRF.

Weekly drift: topic popularity follows a random walk across weeks, shifting
the distribution of the upstream data source. This is the mechanism behind
the paper's Fig. 5(b) accuracy fluctuation that the ensemble stage fixes.

A log is a :class:`BehaviorLog`: the events stored as columns (one text
string, int32 arrays, mentions in CSR form), about 84 bytes per event against
about 480 for a list of event objects, because a bring-up keeps its log alive
through training. ``log[i]`` builds a :class:`BehaviorEvent` when it is read.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields

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


#: Largest value an int32 column holds.
_INT32_MAX = 2**31 - 1


@dataclass(frozen=True, eq=False, repr=False)
class BehaviorLog(Sequence[BehaviorEvent]):
    """An immutable behaviour log stored as columns.

    Row ``i`` is user ``user_ids[i]`` on day ``days[i]``, a search if
    ``is_search[i]`` and a visit otherwise, with the text
    ``text[text_offsets[i]:text_offsets[i + 1]]`` and the gold mentions
    ``mentions[mention_offsets[i]:mention_offsets[i + 1]]``, one
    ``(start, end, entity_id)`` row each, in token order. ``log[i]`` builds
    that row's :class:`BehaviorEvent` from Python ``int``s and ``str``s; a
    slice is a log, ``+`` concatenates two logs and ``==`` compares columns.
    Build a log with :class:`BehaviorLogBuilder` or :meth:`from_events`.
    """

    user_ids: np.ndarray  # (n,) int32
    days: np.ndarray  # (n,) int32
    is_search: np.ndarray  # (n,) bool
    text: str
    text_offsets: np.ndarray  # (n + 1,) int64
    mention_offsets: np.ndarray  # (n + 1,) int64
    mentions: np.ndarray  # (m, 3) int32

    def __post_init__(self) -> None:
        for column in self._arrays():
            column.flags.writeable = False

    @classmethod
    def from_events(cls, events: Iterable[BehaviorEvent]) -> BehaviorLog:
        """A log of hand-built events; raises ``ConfigError`` for a row the
        system cannot use (see :meth:`BehaviorLogBuilder.append`)."""
        builder = BehaviorLogBuilder()
        for event in events:
            builder.append(
                event.user_id,
                event.day,
                event.channel,
                event.text,
                [(m.start, m.end, m.entity_id) for m in event.mentions],
            )
        return builder.build()

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self) if f.name != "text"]

    def __len__(self) -> int:
        return len(self.user_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(np.arange(len(self))[index])
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"behaviour log index {index} out of range for {len(self)} events")
        lo, hi = self.mention_offsets[i : i + 2].tolist()
        return BehaviorEvent(
            user_id=int(self.user_ids[i]),
            day=int(self.days[i]),
            channel="search" if self.is_search[i] else "visit",
            text=self.text_at(i),
            mentions=tuple(Mention(*row) for row in self.mentions[lo:hi].tolist()),
        )

    def text_at(self, i: int) -> str:
        """Row ``i``'s text, without building its event."""
        start, end = self.text_offsets[i : i + 2].tolist()
        return self.text[start:end]

    def _take(self, rows: np.ndarray) -> BehaviorLog:
        """The rows ``rows`` (an index array) as a new log; copies, no views."""
        starts, ends = self.text_offsets[rows], self.text_offsets[rows + 1]
        first = self.mention_offsets[rows]
        counts = self.mention_offsets[rows + 1] - first
        mention_offsets = _offsets(counts)
        picked = np.repeat(first - mention_offsets[:-1], counts) + np.arange(mention_offsets[-1])
        return BehaviorLog(
            user_ids=self.user_ids[rows],
            days=self.days[rows],
            is_search=self.is_search[rows],
            text="".join([self.text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]),
            text_offsets=_offsets(ends - starts),
            mention_offsets=mention_offsets,
            mentions=self.mentions[picked],
        )

    def __add__(self, other: object) -> BehaviorLog:
        if not isinstance(other, BehaviorLog):
            return NotImplemented
        return BehaviorLog(
            user_ids=np.concatenate([self.user_ids, other.user_ids]),
            days=np.concatenate([self.days, other.days]),
            is_search=np.concatenate([self.is_search, other.is_search]),
            text=self.text + other.text,
            text_offsets=np.concatenate(
                [self.text_offsets, other.text_offsets[1:] + len(self.text)]
            ),
            mention_offsets=np.concatenate(
                [self.mention_offsets, other.mention_offsets[1:] + len(self.mentions)]
            ),
            mentions=np.concatenate([self.mentions, other.mentions]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BehaviorLog):
            return NotImplemented
        return self.text == other.text and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays())
        )

    def __repr__(self) -> str:
        return f"BehaviorLog({len(self)} events, {len(self.mentions)} mentions)"


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets (``n + 1``, int64, starting at 0) of ``n`` row lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


class BehaviorLogBuilder:
    """Appends checked rows straight to the columns of a :class:`BehaviorLog`."""

    def __init__(self) -> None:
        self._user_ids = array("i")
        self._days = array("i")
        self._is_search = bytearray()
        self._texts: list[str] = []
        self._text_offsets = array("q", [0])
        self._mention_offsets = array("q", [0])
        self._mentions = array("i")

    def append(
        self,
        user_id: int,
        day: int,
        channel: str,
        text: str,
        mentions: Iterable[tuple[int, int, int]],
    ) -> None:
        """Add one event; raises ``ConfigError`` for a row the system cannot
        use: a channel other than search/visit, a negative user id, day or
        entity id, or a mention span that is not ``0 <= start <= end <``
        the text's token count."""
        if channel not in ("search", "visit"):
            raise ConfigError(f"channel must be 'search' or 'visit', not {channel!r}")
        for name, value in (("user_id", user_id), ("day", day)):
            if not 0 <= value <= _INT32_MAX:
                raise ConfigError(f"{name} must be in [0, 2**31), not {value}")
        num_tokens = len(text.split())
        spans = list(mentions)
        for start, end, entity_id in spans:
            if not 0 <= entity_id <= _INT32_MAX:
                raise ConfigError(f"entity id must be in [0, 2**31), not {entity_id}")
            if not 0 <= start <= end < num_tokens:
                raise ConfigError(
                    f"mention span [{start}, {end}] is not within the text's {num_tokens} tokens"
                )
        self._user_ids.append(user_id)
        self._days.append(day)
        self._is_search.append(channel == "search")
        self._texts.append(text)
        self._text_offsets.append(self._text_offsets[-1] + len(text))
        for span in spans:
            self._mentions.extend(span)
        self._mention_offsets.append(len(self._mentions) // 3)

    def build(self) -> BehaviorLog:
        return BehaviorLog(
            user_ids=np.frombuffer(self._user_ids, dtype=np.int32).copy(),
            days=np.frombuffer(self._days, dtype=np.int32).copy(),
            is_search=np.frombuffer(self._is_search, dtype=np.bool_).copy(),
            text="".join(self._texts),
            text_offsets=np.frombuffer(self._text_offsets, dtype=np.int64).copy(),
            mention_offsets=np.frombuffer(self._mention_offsets, dtype=np.int64).copy(),
            mentions=np.frombuffer(self._mentions, dtype=np.int32).reshape(-1, 3).copy(),
        )


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
    ) -> BehaviorLog:
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

        log = BehaviorLogBuilder()
        for day in range(start_day, start_day + num_days):
            active = rng.random(self.world.num_users) < cfg.daily_activity
            for user_id in np.flatnonzero(active):
                n_events = max(1, int(rng.poisson(cfg.events_per_active_day)))
                for _ in range(n_events):
                    self._append_event(log, int(user_id), day, topic_weight, mention_dists, rng)
        return log.build()

    def generate_week(self, week: int, rng: np.random.Generator | int | None = None) -> BehaviorLog:
        """Generate one drifted week of data (7 days, advancing the drift)."""
        weights = self.drift.step()
        return self.generate(
            start_day=week * 7, num_days=7, topic_weights=weights, rng=rng
        )

    # ------------------------------------------------------------------
    def _append_event(
        self,
        log: BehaviorLogBuilder,
        user_id: int,
        day: int,
        topic_weight: np.ndarray,
        mention_dists: list[tuple[np.ndarray, np.ndarray]],
        rng: np.random.Generator,
    ) -> None:
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
        mentions: list[tuple[int, int, int]] = []
        for text, eid in slots:
            words = text.split()
            if eid is not None:
                mentions.append((len(tokens), len(tokens) + len(words) - 1, eid))
            tokens.extend(words)

        channel = "search" if rng.random() < 0.5 else "visit"
        log.append(user_id, day, channel, " ".join(tokens), mentions)
