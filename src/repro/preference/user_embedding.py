"""User entity preference (paper §III-C, Eq. 7).

The user embedding is the average of the ensemble entity embeddings
``h_e`` over the user's 30-day entity sequence; the preference score for
entity ``m`` is the dot product ``r_u · h_{e_m}``. Computed daily offline so
the online stage only does lookups.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.text.user_sequence import UserEntitySequence


def user_embedding(
    entity_embeddings: np.ndarray, sequence: list[int] | UserEntitySequence
) -> np.ndarray:
    """``r_u = mean(h_e for e in sequence)`` (Eq. 7)."""
    ids = sequence.entity_ids if isinstance(sequence, UserEntitySequence) else list(sequence)
    if not ids:
        raise ConfigError("cannot embed a user with an empty entity sequence")
    return entity_embeddings[np.asarray(ids, dtype=np.int64)].mean(axis=0)


def user_embedding_matrix(
    entity_embeddings: np.ndarray,
    sequences: dict[int, UserEntitySequence],
    num_users: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings for all users with non-empty sequences.

    Returns ``(matrix, covered)`` where ``covered`` is a boolean mask over
    user ids; rows of users with no behavior are zero.
    """
    dim = entity_embeddings.shape[1]
    matrix = np.zeros((num_users, dim))
    covered = np.zeros(num_users, dtype=bool)
    for user_id, sequence in sequences.items():
        if len(sequence) == 0:
            continue
        matrix[user_id] = user_embedding(entity_embeddings, sequence)
        covered[user_id] = True
    return matrix, covered


def preference_scores(
    user_matrix: np.ndarray, entity_embeddings: np.ndarray, entity_ids: np.ndarray
) -> np.ndarray:
    """``s_<u,e> = r_u · h_e`` for every user × requested entity.

    Returns ``(num_users, len(entity_ids))``.
    """
    entity_ids = np.asarray(entity_ids, dtype=np.int64)
    return user_matrix @ entity_embeddings[entity_ids].T
