"""User entity preference: embeddings, scores, and the serving store."""

from repro.preference.user_embedding import (
    preference_scores,
    user_embedding,
    user_embedding_matrix,
)
from repro.preference.store import PREF_FORMAT, PreferenceStore, UserScore

__all__ = [
    "user_embedding",
    "user_embedding_matrix",
    "preference_scores",
    "PreferenceStore",
    "PREF_FORMAT",
    "UserScore",
]
