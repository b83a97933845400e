"""Marketer-facing explanations for targeting decisions.

The EGL System's selling point over look-alike models is transparency
(paper §I: "entity graph based reasoning offers intuitive explanations for
user targeting"). This module turns the raw artefacts — expansion views,
preference scores, user histories — into the textual reports a marketer
console would render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.online.reasoning import ExpansionView
from repro.preference.store import PreferenceStore
from repro.text.entity_dict import EntityDict
from repro.text.user_sequence import UserEntitySequence


@dataclass
class UserExplanation:
    """Why one user landed in the exported audience."""

    user_id: int
    score: float
    #: (entity name, interaction share, contribution) for the strongest
    #: drivers among the chosen entities.
    drivers: list[tuple[str, float, float]]

    def to_text(self) -> str:
        if not self.drivers:
            return (
                f"user {self.user_id} (score {self.score:.3f}): selected by "
                "embedding similarity; no direct interaction with the chosen entities"
            )
        parts = ", ".join(
            f"{name} (history share {share:.0%})" for name, share, _ in self.drivers
        )
        return f"user {self.user_id} (score {self.score:.3f}): interacted with {parts}"


def explain_expansion(view: ExpansionView, max_entities: int = 10) -> str:
    """Render the expansion's reasoning paths as indented text."""
    lines = [f"seeds: {', '.join(view.seeds)}"]
    for entity in view.top(max_entities):
        indent = "  " * (entity.hop + 1)
        lines.append(
            f"{indent}{entity.name} [{entity.type_name}] "
            f"hop {entity.hop}, relevance {entity.score:.3f}, "
            f"path: {' > '.join(entity.path)}"
        )
    return "\n".join(lines)


def explain_user(
    user_id: int,
    score: float,
    chosen_entity_ids: list[int],
    sequences: dict[int, UserEntitySequence],
    entity_dict: EntityDict,
    max_drivers: int = 3,
) -> UserExplanation:
    """Attribute a user's selection to their interaction history.

    Drivers are the chosen entities the user actually interacted with,
    ranked by their share of the user's 30-day entity sequence.
    """
    if not chosen_entity_ids:
        raise ConfigError("need at least one chosen entity to explain against")
    sequence = sequences.get(user_id)
    drivers: list[tuple[str, float, float]] = []
    if sequence is not None and len(sequence) > 0:
        ids = np.asarray(sequence.entity_ids)
        total = len(ids)
        for entity_id in chosen_entity_ids:
            count = int((ids == entity_id).sum())
            if count:
                share = count / total
                drivers.append((entity_dict.by_id(entity_id).name, share, share))
        drivers.sort(key=lambda d: -d[2])
    return UserExplanation(user_id=user_id, score=score, drivers=drivers[:max_drivers])


def explain_targeting(
    view: ExpansionView,
    user_scores: list,
    store: PreferenceStore,
    sequences: dict[int, UserEntitySequence],
    entity_dict: EntityDict,
    max_users: int = 5,
) -> str:
    """Full report: reasoning paths plus per-user selection rationales."""
    chosen = [e.entity_id for e in view.entities]
    lines = [explain_expansion(view), "", f"top users ({len(user_scores)} exported):"]
    for user in user_scores[:max_users]:
        explanation = explain_user(
            user.user_id, user.score, chosen, sequences, entity_dict
        )
        lines.append("  " + explanation.to_text())
    return "\n".join(lines)
