"""Online entity-graph reasoning (paper §II-B, Fig. 6 steps 1-3).

Marketers type service phrases; the reasoner resolves them to entities,
expands k hops along the mined entity graph (depth under marketer control),
and returns every discovered entity with its relevance score, hop depth and
an explanation path — the transparency that rule-based tags and black-box
look-alike models both lack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError, VocabularyError
from repro.graph.entity_graph import EntityGraph
from repro.graph.khop import ExpansionResult, k_hop_expansion
from repro.text.entity_dict import EntityDict
from repro.text.lexicon import Lexicon
from repro.text.tokenizer import WhitespaceTokenizer


@dataclass
class EntityView:
    """One row of the marketer-facing expansion table."""

    entity_id: int
    name: str
    type_name: str
    hop: int
    score: float
    path: list[str]  # seed → ... → entity, by name


@dataclass
class ExpansionView:
    """The subgraph shown to the marketer (Fig. 6 step 2)."""

    seeds: list[str]
    entities: list[EntityView]
    raw: ExpansionResult
    #: Frontier size per hop (hop 0 = seeds), for request records; computed
    #: once, because a cached view is read on every warm request.
    hop_sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.hop_sizes = tuple(len(h) for h in self.raw.hops)

    def at_hop(self, hop: int) -> list[EntityView]:
        return [e for e in self.entities if e.hop == hop]

    def top(self, n: int) -> list[EntityView]:
        return self.entities[:n]


class GraphReasoner:
    """Resolve phrases to entities and expand them along the graph."""

    def __init__(
        self,
        graph: EntityGraph,  # or any csr_view() reader (a frozen CSRGraph)
        entity_dict: EntityDict,
        lexicon: Lexicon | None = None,
    ) -> None:
        self.graph = graph
        self.entity_dict = entity_dict
        self.lexicon = lexicon
        self._tokenizer = WhitespaceTokenizer()

    # ------------------------------------------------------------------
    def resolve_phrase(self, phrase: str, fallback_k: int = 1) -> list[int]:
        """Map a marketer phrase to entity ids.

        Exact Entity Dict hits win; otherwise (a genuinely new phrase — the
        cold-start case) the lexicon embeds the text as the average of its
        pretrained token vectors and the nearest entities in ``E^Se`` are
        used.
        """
        tokens = self._tokenizer.tokenize(phrase)
        spans = self.entity_dict.scan(tokens)
        if spans:
            return [entry.entity_id for _, _, entry in spans]
        if self.lexicon is None:
            raise VocabularyError(
                f"phrase {phrase!r} not in the Entity Dict and no semantic fallback configured"
            )
        sims = self.lexicon.e_semantic @ self.lexicon.encode_text(phrase)
        top = np.argsort(-sims)[:fallback_k]
        return [int(t) for t in top]

    def expand(
        self,
        phrases: list[str],
        depth: int = 2,
        min_score: float = 0.0,
        max_neighbors_per_node: int | None = 25,
        max_nodes: int | None = None,
    ) -> ExpansionView:
        """k-hop expansion from the resolved phrases (depth = marketer knob)."""
        if depth < 0:
            raise GraphError("depth must be non-negative")
        seeds: list[int] = []
        for phrase in phrases:
            seeds.extend(self.resolve_phrase(phrase))
        if not seeds:
            raise VocabularyError(f"no entities resolved from phrases {phrases!r}")
        raw = k_hop_expansion(
            self.graph,
            seeds,
            depth,
            max_neighbors_per_node=max_neighbors_per_node,
            max_nodes=max_nodes,
        )
        entities = []
        for node in raw.entities(min_score=min_score):
            entry = self.entity_dict.by_id(node)
            entities.append(
                EntityView(
                    entity_id=node,
                    name=entry.name,
                    type_name=entry.type_name,
                    hop=raw.depth_of(node),
                    score=raw.scores[node],
                    path=[self.entity_dict.by_id(p).name for p in raw.path_to(node)],
                )
            )
        return ExpansionView(
            seeds=[self.entity_dict.by_id(s).name for s in raw.seeds],
            entities=entities,
            raw=raw,
        )
