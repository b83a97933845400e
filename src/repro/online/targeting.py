"""Online user targeting (paper §II-B, Fig. 6 step 3: "export").

Given the entities the marketer selected, return the top-K users by
average preference score, with the wall-clock time the request took — the
paper reports 2-4 minutes end-to-end at Alipay scale; we report the
simulator's actual latency.

Scoring is plain numpy over the published preference arrays; nothing
here touches the autograd engine. ``target_batch`` scores many entity
sets in one vectorized pass — the shape the runtime uses when a burst of
requests (or one request per campaign variant) arrives together. :func:`target_users_for_phrases` is the whole cold-start
flow (phrases → expansion → audience) over one acquired generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.obs.context import phase
from repro.online.reasoning import ExpansionView
from repro.preference.store import PreferenceStore, UserScore
from repro.resilience import Deadline

if TYPE_CHECKING:
    from repro.serving.runtime import ActiveArtifacts


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


def target_users_for_phrases(
    active: ActiveArtifacts,
    phrases: list[str],
    depth: int = 2,
    k: int = 50,
    min_score: float = 0.0,
    max_entities: int | None = 15,
    deadline: Deadline | None = None,
) -> tuple[ExpansionView, TargetingResult]:
    """The full cold-start flow over one generation (``runtime.acquire()``):
    phrases → expansion → top-K users.

    The expansion's relevance scores weight each entity's contribution,
    and only the ``max_entities`` most relevant entities are used —
    mirroring a marketer keeping the best suggestions rather than the
    whole k-hop frontier. The deadline is checked before each step, so a
    slow expansion sheds the (more expensive) scoring pass instead of
    starting it with a spent budget.
    """
    if deadline is not None:
        deadline.check("expand")
    view = active.require_reasoner().expand(phrases, depth=depth, min_score=min_score)
    chosen = view.entities if max_entities is None else view.entities[:max_entities]
    if deadline is not None:
        deadline.check("target")
    return view, active.require_targeting().target(
        [e.entity_id for e in chosen], k, weights=[e.score for e in chosen]
    )
