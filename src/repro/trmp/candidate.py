"""TRMP Stage I — candidate generation (paper §III-B.1, Fig. 4(a)).

Builds the initial entity graph ``G^C`` by merging:

* **co-occurrence** relevance: top-k neighbours in the Skip-gram embedding
  space ``E^Co`` (mined from user entity sequences);
* **semantic** relevance: top-k neighbours in the text-encoder embedding
  space ``E^Se``.

Edges carry their provenance (co-occurrence / semantic / both) as relation
labels and the normalised similarity as the confidence weight. A popularity-
sampling generator is included as the Table I control row (TRMP w.o. E&R_s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.knn import all_pairs_topk
from repro.errors import ConfigError
from repro.graph.entity_graph import (
    RELATION_BOTH,
    RELATION_COOCCURRENCE,
    RELATION_SEMANTIC,
    EntityGraph,
)
from repro.rng import ensure_rng


@dataclass
class CandidateGenerationConfig:
    """Stage I knobs."""

    top_k_cooccurrence: int = 10
    top_k_semantic: int = 8
    min_cooccurrence_sim: float = 0.3
    min_semantic_sim: float = 0.5
    #: Entities seen fewer times than this in the behavior sequences get no
    #: co-occurrence edges: their Skip-gram vectors are noise, and tail
    #: entities should be connected through the semantic channel instead.
    min_cooccurrence_count: int = 8

    def validate(self) -> None:
        if self.top_k_cooccurrence < 1 or self.top_k_semantic < 1:
            raise ConfigError("top-k values must be >= 1")
        if self.min_cooccurrence_count < 0:
            raise ConfigError("min_cooccurrence_count must be >= 0")


@dataclass
class CandidateResult:
    """Stage I output: the initial graph plus the two embedding matrices."""

    graph: EntityGraph
    e_cooccurrence: np.ndarray
    e_semantic: np.ndarray

    @property
    def node_features(self) -> np.ndarray:
        """``[E^Se || E^Co]`` — the GeniePath input features (paper Eq. 1)."""
        return np.concatenate([self.e_semantic, self.e_cooccurrence], axis=1)


class CandidateGenerator:
    """Merge co-occurrence and semantic kNN graphs into ``G^C``."""

    def __init__(self, config: CandidateGenerationConfig | None = None) -> None:
        self.config = config or CandidateGenerationConfig()
        self.config.validate()

    def generate(
        self,
        e_cooccurrence: np.ndarray,
        e_semantic: np.ndarray,
        cooccurrence_counts: np.ndarray | None = None,
    ) -> CandidateResult:
        """Merge the two kNN graphs.

        ``cooccurrence_counts`` (per-entity occurrence counts in the entity
        sequences) gates the co-occurrence channel: entities below
        ``min_cooccurrence_count`` contribute no co-occurrence edges.
        """
        e_co = np.asarray(e_cooccurrence, dtype=np.float64)
        e_se = np.asarray(e_semantic, dtype=np.float64)
        if len(e_co) != len(e_se):
            raise ConfigError("E^Co and E^Se must cover the same entities")
        num_entities = len(e_co)
        cfg = self.config

        allowed = None
        if cooccurrence_counts is not None and cfg.min_cooccurrence_count > 0:
            counts = np.asarray(cooccurrence_counts)
            if counts.shape != (num_entities,):
                raise ConfigError("cooccurrence_counts must have one entry per entity")
            allowed = counts >= cfg.min_cooccurrence_count
        co_edges = self._knn_edges(
            e_co, cfg.top_k_cooccurrence, cfg.min_cooccurrence_sim, allowed
        )
        se_edges = self._knn_edges(e_se, cfg.top_k_semantic, cfg.min_semantic_sim)

        merged: dict[tuple[int, int], tuple[float, int]] = {}
        for pair, weight in co_edges.items():
            merged[pair] = (weight, RELATION_COOCCURRENCE)
        for pair, weight in se_edges.items():
            if pair in merged:
                merged[pair] = (max(merged[pair][0], weight), RELATION_BOTH)
            else:
                merged[pair] = (weight, RELATION_SEMANTIC)

        pairs = list(merged)
        weights = [merged[p][0] for p in pairs]
        relations = [merged[p][1] for p in pairs]
        graph = EntityGraph.from_edge_list(num_entities, pairs, weights, relations)
        return CandidateResult(graph=graph, e_cooccurrence=e_co, e_semantic=e_se)

    @staticmethod
    def _knn_edges(
        vectors: np.ndarray,
        k: int,
        min_sim: float,
        allowed: np.ndarray | None = None,
    ) -> dict[tuple[int, int], float]:
        ids, scores = all_pairs_topk(vectors, k)
        edges: dict[tuple[int, int], float] = {}
        for u in range(len(vectors)):
            if allowed is not None and not allowed[u]:
                continue
            for v, s in zip(ids[u], scores[u]):
                if s < min_sim:
                    continue
                if allowed is not None and not allowed[int(v)]:
                    continue
                key = (min(u, int(v)), max(u, int(v)))
                # Normalise cosine in [-1, 1] to a (0, 1] confidence.
                weight = float((s + 1.0) / 2.0)
                if key not in edges or weight > edges[key]:
                    edges[key] = weight
        return edges


def popularity_sampling_pairs(
    popularity: np.ndarray,
    count: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """The naive control: pair entities sampled ∝ popularity (Table I row 1).

    This is "forming entity pairs through popularity sampling methods from
    Entity Dict" — no behavioural or semantic evidence at all.
    """
    rng = ensure_rng(rng)
    popularity = np.asarray(popularity, dtype=np.float64)
    probs = popularity / popularity.sum()
    n = len(popularity)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        us = rng.choice(n, size=count, p=probs)
        vs = rng.choice(n, size=count, p=probs)
        for u, v in zip(us, vs):
            if u != v and len(pairs) < count:
                pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    return np.asarray(sorted(pairs), dtype=np.int64)
