"""Online user targeting (paper §II-B, Fig. 6 step 3: "export").

Given the entities the marketer selected, return the top-K users by
average preference score, with the wall-clock time the request took — the
paper reports 2-4 minutes end-to-end at Alipay scale; we report the
simulator's actual latency.

Scoring runs under :func:`repro.tensor.no_grad`: the read path is
inference-only and must never record autograd state. ``target_batch``
scores many entity sets in one vectorized pass — the shape the runtime
uses when a burst of requests (or one request per campaign variant)
arrives together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.context import phase
from repro.preference.store import PreferenceStore, UserScore
from repro.tensor import no_grad


@dataclass
class TargetingResult:
    """The exported user set plus request metadata."""

    entity_ids: list[int]
    users: list[UserScore]
    elapsed_seconds: float

    @property
    def user_ids(self) -> list[int]:
        return [u.user_id for u in self.users]


class UserTargeting:
    """Thin timing/validation wrapper over the preference store."""

    def __init__(self, preference_store: PreferenceStore) -> None:
        self.preference_store = preference_store

    def target(
        self,
        entity_ids: list[int],
        k: int,
        weights: list[float] | None = None,
    ) -> TargetingResult:
        """Top-K users by (optionally relevance-weighted) average preference."""
        if k < 1:
            raise ConfigError("k must be >= 1")
        with phase("targeting"):
            start = time.perf_counter()
            with no_grad():
                users = self.preference_store.top_users_for_entities(
                    list(entity_ids), k, weights=None if weights is None else list(weights)
                )
            elapsed = time.perf_counter() - start
            return TargetingResult(
                entity_ids=list(entity_ids), users=users, elapsed_seconds=elapsed
            )

    def target_batch(
        self,
        entity_sets: list[list[int]],
        k: int,
        weights: list[list[float] | None] | None = None,
    ) -> list[TargetingResult]:
        """Score many entity sets per call instead of one-by-one.

        Every set is scored in one pass over the user rows (see
        :meth:`PreferenceStore.top_users_for_entity_sets`); each result
        carries the same per-request metadata as :meth:`target`.
        """
        if k < 1:
            raise ConfigError("k must be >= 1")
        with phase("targeting"):
            start = time.perf_counter()
            with no_grad():
                per_set = self.preference_store.top_users_for_entity_sets(
                    [list(ids) for ids in entity_sets], k, weights=weights
                )
            elapsed = time.perf_counter() - start
            return [
                TargetingResult(
                    entity_ids=list(ids), users=users, elapsed_seconds=elapsed
                )
                for ids, users in zip(entity_sets, per_set)
            ]
