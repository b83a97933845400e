"""Targeting baselines for the online A/B simulation.

* :class:`RuleBasedTargeting` — the paper's online control: marketers pick
  entity *types* relevant to the service and users are ranked by how often
  they interacted with entities of those types (tag mining + rule
  expression, Fig. 1(a)).
* :class:`LookAlikeTargeting` — a Hubble-style audience-expansion baseline:
  per-campaign model trained on seed users, then full-population scoring.
  It *requires* seeds (the cold-start failure mode the paper motivates) and
  pays per-campaign training time (the efficiency comparison in §IV-D).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.behavior import BehaviorLog
from repro.datasets.world import World
from repro.errors import ConfigError
from repro.rng import ensure_rng
from repro.simulation.services import Service
from repro.text.entity_dict import EntityDict
from repro.text.sequence_extractor import EntitySequenceExtractor


@dataclass
class BaselineTargetingResult:
    user_ids: np.ndarray
    elapsed_seconds: float


class RuleBasedTargeting:
    """Tag/rule targeting: rank users by interactions with service-typed entities."""

    def __init__(self, world: World, entity_dict: EntityDict, events: BehaviorLog) -> None:
        self.world = world
        self.entity_dict = entity_dict
        extractor = EntitySequenceExtractor(entity_dict)
        sequences = extractor.extract_sequences(events)
        # user × type interaction counts (the "tags" marketers can query).
        self._type_counts = np.zeros((world.num_users, 26))
        for user_id, seq in sequences.items():
            for entity_id in seq.entity_ids:
                self._type_counts[user_id, entity_dict.by_id(entity_id).type_id] += 1

    def service_types(self, service: Service) -> list[int]:
        """The entity types a marketer's rule expression would whitelist.

        A rule system only sees the prefabricated tags of the *literal*
        service phrases — the coarse Entity Dict types of those entities —
        not the service's latent topic. This coarseness (26 types shared
        across topics, plus taxonomy noise) is exactly why tag rules
        under-perform on fine-grained services.
        """
        types = set()
        for phrase in service.phrases:
            entry = self.entity_dict.get(phrase)
            if entry is not None:
                types.add(entry.type_id)
        return sorted(types)

    def target(self, service: Service, k: int, rng: np.random.Generator | int | None = None) -> BaselineTargetingResult:
        start = time.perf_counter()
        rng = ensure_rng(rng)
        types = self.service_types(service)
        scores = (
            self._type_counts[:, types].sum(axis=1)
            if types
            else np.zeros(self.world.num_users)
        )
        # Tie-break randomly so the rule set does not return a fixed prefix.
        jitter = rng.random(len(scores)) * 1e-6
        top = np.argsort(-(scores + jitter))[:k]
        return BaselineTargetingResult(
            user_ids=np.asarray(top, dtype=np.int64),
            elapsed_seconds=time.perf_counter() - start,
        )

    def target_with_topic_oracle(
        self, service: Service, k: int, rng: np.random.Generator | int | None = None
    ) -> BaselineTargetingResult:
        """Upper-bound rule set that magically knows the latent topic's
        full type list — useful as an analysis ceiling, not a fair control."""
        start = time.perf_counter()
        rng = ensure_rng(rng)
        types = sorted(
            {
                e.type_id
                for e in self.world.entities
                if e.primary_topic == service.primary_topic
            }
        )
        scores = self._type_counts[:, types].sum(axis=1)
        jitter = rng.random(len(scores)) * 1e-6
        top = np.argsort(-(scores + jitter))[:k]
        return BaselineTargetingResult(
            user_ids=np.asarray(top, dtype=np.int64),
            elapsed_seconds=time.perf_counter() - start,
        )


class LookAlikeTargeting:
    """Hubble-style seed-based audience expansion.

    Trains a fresh logistic model per campaign on seed-vs-sampled users over
    behavioural type-count features, then scores the full population. The
    per-campaign training is what makes this slower than EGL's precomputed
    preference lookups; the seed requirement is what breaks on new services.
    """

    def __init__(self, world: World, entity_dict: EntityDict, events: BehaviorLog) -> None:
        rule = RuleBasedTargeting(world, entity_dict, events)
        counts = rule._type_counts
        self.world = world
        self._features = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)

    def target(
        self,
        service: Service,
        seed_users: np.ndarray | None,
        k: int,
        rng: np.random.Generator | int | None = None,
        train_epochs: int = 400,
    ) -> BaselineTargetingResult:
        if seed_users is None or len(seed_users) == 0:
            raise ConfigError(
                f"look-alike targeting needs seed users for {service.name!r} "
                "(new services have none — the cold-start failure)"
            )
        start = time.perf_counter()
        rng = ensure_rng(rng)
        seeds = np.asarray(seed_users, dtype=np.int64)
        negatives = rng.choice(self.world.num_users, size=min(len(seeds) * 4, self.world.num_users), replace=False)
        x = np.concatenate([self._features[seeds], self._features[negatives]])
        y = np.concatenate([np.ones(len(seeds)), np.zeros(len(negatives))])
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(train_epochs):
            z = np.clip(x @ w + b, -30, 30)
            p = 1.0 / (1.0 + np.exp(-z))
            g = p - y
            w -= 0.5 * (x.T @ g) / len(x)
            b -= 0.5 * g.mean()
        scores = self._features @ w + b
        top = np.argsort(-scores)[:k]
        return BaselineTargetingResult(
            user_ids=np.asarray(top, dtype=np.int64),
            elapsed_seconds=time.perf_counter() - start,
        )
