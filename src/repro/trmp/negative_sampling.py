"""Negative sampling strategies for the ranking stage.

The paper's Challenge 2: naive random corruption yields "easy" negatives
that cap representation quality. We provide a mixed sampler: a fraction of
negatives are *semantically hard* — non-linked pairs whose semantic
embeddings are close — and the rest uniform random non-edges.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.knn import all_pairs_topk
from repro.errors import ConfigError
from repro.graph.entity_graph import EntityGraph
from repro.graph.sampling import sample_negative_pairs
from repro.rng import ensure_rng


def semantic_anchor_pairs(
    graph: EntityGraph,
    e_semantic: np.ndarray,
    similarity_quantile: float = 0.7,
) -> np.ndarray:
    """⟨e, e+⟩ anchor pairs for the contrastive task (paper §III-B.2).

    Following the paper, ``⟨e, e+⟩`` pairs are taken from the *correlated
    entity lists* — i.e. the candidate graph's edges — keeping only those
    whose semantic-level similarity clears a threshold. We set the threshold
    adaptively as the ``similarity_quantile`` of all edge semantic
    similarities, so the anchors are the graph's semantically most-confirmed
    relations. Anchoring inside the correlated lists keeps the contrastive
    pull consistent with the link-prediction objective instead of fighting
    it.
    """
    if not 0 <= similarity_quantile < 1:
        raise ConfigError("similarity_quantile must be in [0, 1)")
    lo, hi = graph.canonical_pairs()
    if len(lo) == 0:
        return np.empty((0, 2), dtype=np.int64)
    unit = e_semantic / np.maximum(
        np.linalg.norm(e_semantic, axis=1, keepdims=True), 1e-12
    )
    edge_sims = (unit[lo] * unit[hi]).sum(axis=1)
    threshold = np.quantile(edge_sims, similarity_quantile)
    keep = edge_sims >= threshold
    pairs = np.stack([lo[keep], hi[keep]], axis=1)
    # Both orientations: each endpoint serves as an anchor (paper: "for a
    # (source or target) entity e").
    return np.concatenate([pairs, pairs[:, ::-1]], axis=0)


def hard_negative_pairs(
    graph: EntityGraph,
    e_semantic: np.ndarray,
    count: int,
    top_k: int = 20,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Non-edges whose endpoints are semantically close (hard negatives)."""
    rng = ensure_rng(rng)
    ids, _ = all_pairs_topk(e_semantic, top_k)
    existing = graph.edge_key_set()
    candidates: list[tuple[int, int]] = []
    for u in range(graph.num_nodes):
        for v in ids[u]:
            key = (min(u, int(v)), max(u, int(v)))
            if key not in existing:
                candidates.append(key)
    candidates = sorted(set(candidates))
    if not candidates:
        raise ConfigError("no hard negatives available: graph covers all close pairs")
    picks = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    return np.asarray([candidates[i] for i in picks], dtype=np.int64)


def mixed_negative_pairs(
    graph: EntityGraph,
    e_semantic: np.ndarray,
    count: int,
    hard_fraction: float = 0.3,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """``hard_fraction`` semantically hard + remainder uniform non-edges."""
    if not 0 <= hard_fraction <= 1:
        raise ConfigError("hard_fraction must be in [0, 1]")
    rng = ensure_rng(rng)
    n_hard = int(round(count * hard_fraction))
    parts = []
    if n_hard:
        hard = hard_negative_pairs(graph, e_semantic, n_hard, rng=rng)
        parts.append(hard)
        n_hard = len(hard)  # may be fewer than requested
    n_random = count - n_hard
    if n_random:
        forbidden = {tuple(p) for p in parts[0]} if parts else None
        parts.append(sample_negative_pairs(graph, n_random, rng, forbidden=forbidden))
    return np.concatenate(parts, axis=0)
