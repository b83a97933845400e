"""Graph sampling utilities: alias method, random walks, negative pairs.

Random walks feed DeepWalk/Node2Vec; negative-pair sampling feeds every
link-prediction trainer (including ALPC).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.entity_graph import EntityGraph
from repro.rng import ensure_rng, weighted_choice


class AliasSampler:
    """O(1) sampling from a fixed discrete distribution (Walker's alias method)."""

    def __init__(self, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) == 0:
            raise ConfigError("alias sampler needs a non-empty 1-D probability vector")
        if probs.min() < 0:
            raise ConfigError("probabilities must be non-negative")
        total = probs.sum()
        if total <= 0:
            raise ConfigError("probabilities must not all be zero")
        n = len(probs)
        scaled = probs * (n / total)
        self.prob = np.zeros(n)
        self.alias = np.zeros(n, dtype=np.int64)

        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in small + large:
            self.prob[i] = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        rng = ensure_rng(rng)
        n = len(self.prob)
        cols = rng.integers(0, n, size=size)
        coin = rng.random(size) < self.prob[cols]
        return np.where(coin, cols, self.alias[cols])


def random_walks(
    graph: EntityGraph,
    num_walks: int,
    walk_length: int,
    rng: np.random.Generator | int | None = None,
    weighted: bool = False,
) -> list[list[int]]:
    """Uniform (or weight-proportional) random walks from every node.

    Returns ``num_walks`` walks per node; walks stop early at isolated nodes.
    """
    rng = ensure_rng(rng)
    walks: list[list[int]] = []
    samplers: dict[int, AliasSampler] = {}
    for _ in range(num_walks):
        start_order = rng.permutation(graph.num_nodes)
        for start in start_order:
            walk = [int(start)]
            for _ in range(walk_length - 1):
                nbrs, weights = graph.neighbors(walk[-1])
                if len(nbrs) == 0:
                    break
                if weighted:
                    node = walk[-1]
                    if node not in samplers:
                        samplers[node] = AliasSampler(weights)
                    nxt = nbrs[samplers[node].sample(rng, 1)[0]]
                else:
                    nxt = nbrs[rng.integers(0, len(nbrs))]
                walk.append(int(nxt))
            walks.append(walk)
    return walks


def node2vec_walks(
    graph: EntityGraph,
    num_walks: int,
    walk_length: int,
    p: float = 1.0,
    q: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> list[list[int]]:
    """Second-order biased walks (Grover & Leskovec, 2016).

    ``p`` controls the return probability, ``q`` the in-out balance. The
    transition is re-weighted per (previous, current) pair; we compute the
    bias lazily per step rather than precomputing all pair aliases, which is
    the right trade-off at this graph scale.
    """
    if p <= 0 or q <= 0:
        raise ConfigError("node2vec p and q must be positive")
    # Checked once here; ``weighted_choice`` does not check per step.
    if not (np.isfinite(graph.weight).all() and (graph.weight >= 0).all()):
        raise GraphError("node2vec walks need finite, non-negative edge weights")
    rng = ensure_rng(rng)
    neighbor_sets = [set(graph.neighbors(v)[0].tolist()) for v in range(graph.num_nodes)]
    walks: list[list[int]] = []
    for _ in range(num_walks):
        start_order = rng.permutation(graph.num_nodes)
        for start in start_order:
            walk = [int(start)]
            for _ in range(walk_length - 1):
                cur = walk[-1]
                nbrs, weights = graph.neighbors(cur)
                if len(nbrs) == 0:
                    break
                if len(walk) == 1:
                    probs = weights.astype(np.float64)
                else:
                    prev = walk[-2]
                    prev_nbrs = neighbor_sets[prev]
                    bias = np.empty(len(nbrs))
                    for i, x in enumerate(nbrs):
                        x = int(x)
                        if x == prev:
                            bias[i] = 1.0 / p
                        elif x in prev_nbrs:
                            bias[i] = 1.0
                        else:
                            bias[i] = 1.0 / q
                    probs = weights * bias
                total = probs.sum()
                if not total > 0:
                    raise GraphError(f"node {cur} has no positively weighted neighbour")
                nxt = nbrs[weighted_choice(rng, probs / total)]
                walk.append(int(nxt))
            walks.append(walk)
    return walks


def sample_negative_pairs(
    graph: EntityGraph,
    count: int,
    rng: np.random.Generator | int | None = None,
    forbidden: set[tuple[int, int]] | None = None,
    max_tries_factor: int = 50,
) -> np.ndarray:
    """Sample ``count`` node pairs that are *not* edges of ``graph``.

    ``forbidden`` adds extra pairs to avoid (e.g. held-out test edges).
    Returns an ``(count, 2)`` int array of canonical (lo, hi) pairs.
    """
    rng = ensure_rng(rng)
    if graph.num_nodes < 2:
        raise GraphError("need at least two nodes to sample negative pairs")
    existing = graph.edge_key_set()
    if forbidden:
        existing |= {(min(u, v), max(u, v)) for u, v in forbidden}
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    tries = 0
    max_tries = max_tries_factor * max(count, 1)
    while len(out) < count and tries < max_tries:
        tries += 1
        batch = rng.integers(0, graph.num_nodes, size=(max(count, 256), 2))
        for u, v in batch:
            if len(out) >= count:
                break
            u, v = int(u), int(v)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in existing or key in seen:
                continue
            seen.add(key)
            out.append(key)
    if len(out) < count:
        raise GraphError(
            f"could only sample {len(out)}/{count} negative pairs; graph too dense"
        )
    return np.asarray(out, dtype=np.int64)


def sample_corrupted_targets(
    sources: np.ndarray,
    num_nodes: int,
    num_negatives: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """For each source node, sample ``num_negatives`` random targets.

    The cheap (possibly false-negative) corruption used inside training
    loops, shape ``(len(sources), num_negatives)``.
    """
    rng = ensure_rng(rng)
    return rng.integers(0, num_nodes, size=(len(np.asarray(sources)), num_negatives))
