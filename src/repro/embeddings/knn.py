"""Exact cosine top-k over an embedding matrix.

Candidate generation (TRMP Stage I) needs "top-k most similar entities" for
every entity, under both the co-occurrence and the semantic embedding;
hard-negative sampling needs the same under the semantic one. Both call
:func:`all_pairs_topk`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Rows scored per matrix product: bounds the similarity block in memory.
BLOCK_SIZE = 512


def all_pairs_topk(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For every row of ``vectors``, its top-k other rows by cosine.

    Returns ``(ids, scores)`` of shape ``(n, min(k, n - 1))``, each row in
    descending score order; self-matches excluded.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ConfigError("vectors must be a 2-D matrix")
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    unit = vectors / np.maximum(norms, 1e-12)
    n = len(unit)
    k = min(k, n - 1)
    ids = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k))
    for start in range(0, n, BLOCK_SIZE):
        end = min(start + BLOCK_SIZE, n)
        sims = unit[start:end] @ unit.T
        sims[np.arange(end - start), np.arange(start, end)] = -np.inf
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        row_scores = np.take_along_axis(sims, top, axis=1)
        order = np.argsort(-row_scores, axis=1)
        ids[start:end] = np.take_along_axis(top, order, axis=1)
        scores[start:end] = np.take_along_axis(row_scores, order, axis=1)
    return ids, scores
