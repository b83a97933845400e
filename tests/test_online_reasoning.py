"""Online graph reasoning: phrase resolution and expansion views."""

import numpy as np
import pytest

from repro.errors import GraphError, VocabularyError
from repro.graph import EntityGraph
from repro.online import GraphReasoner
from repro.text import EntityDict, EntityEntry


@pytest.fixture()
def reasoner():
    entity_dict = EntityDict(
        [
            EntityEntry(0, "nba", 0, "sport_event"),
            EntityEntry(1, "lakers", 1, "sport_team"),
            EntityEntry(2, "james", 2, "celebrity"),
            EntityEntry(3, "tesla", 3, "car"),
        ]
    )
    graph = EntityGraph.from_edge_list(
        4, [(0, 1), (1, 2)], weights=[0.9, 0.8]
    )
    return GraphReasoner(graph, entity_dict)


class TestResolve:
    def test_exact_phrase(self, reasoner):
        assert reasoner.resolve_phrase("NBA") == [0]

    def test_phrase_with_noise_tokens(self, reasoner):
        assert reasoner.resolve_phrase("watch the lakers tonight") == [1]

    def test_multiple_entities_in_phrase(self, reasoner):
        assert reasoner.resolve_phrase("nba lakers") == [0, 1]

    def test_unknown_phrase_without_fallback_raises(self, reasoner):
        with pytest.raises(VocabularyError):
            reasoner.resolve_phrase("totally new thing")

    def test_semantic_fallback(self, world, semantic_encoder, entity_dict):
        graph = EntityGraph.from_edge_list(world.num_entities, [(0, 1)])
        reasoner = GraphReasoner(graph, entity_dict, semantic_encoder.lexicon())
        # A phrase made of topic-0 words should resolve to some entity.
        word = world.topic_words[0][0]
        ids = reasoner.resolve_phrase(f"{word} {word}", fallback_k=3)
        assert len(ids) == 3
        assert all(0 <= i < world.num_entities for i in ids)


class TestExpand:
    def test_view_contains_paths_and_types(self, reasoner):
        view = reasoner.expand(["nba"], depth=2)
        assert view.seeds == ["nba"]
        names = {e.name for e in view.entities}
        assert names == {"nba", "lakers", "james"}
        james = next(e for e in view.entities if e.name == "james")
        assert james.hop == 2
        assert james.path == ["nba", "lakers", "james"]
        assert james.score == pytest.approx(0.9 * 0.8)
        assert james.type_name == "celebrity"

    def test_depth_limits_reach(self, reasoner):
        view = reasoner.expand(["nba"], depth=1)
        assert {e.name for e in view.entities} == {"nba", "lakers"}

    def test_entities_sorted_by_score(self, reasoner):
        view = reasoner.expand(["nba"], depth=2)
        scores = [e.score for e in view.entities]
        assert scores == sorted(scores, reverse=True)

    def test_at_hop_and_top(self, reasoner):
        view = reasoner.expand(["nba"], depth=2)
        assert [e.name for e in view.at_hop(1)] == ["lakers"]
        assert len(view.top(2)) == 2

    def test_min_score_filter(self, reasoner):
        view = reasoner.expand(["nba"], depth=2, min_score=0.85)
        assert {e.name for e in view.entities} == {"nba", "lakers"}

    def test_invalid_depth(self, reasoner):
        with pytest.raises(GraphError):
            reasoner.expand(["nba"], depth=-1)

    def test_no_entities_resolved(self, reasoner):
        with pytest.raises(VocabularyError):
            reasoner.expand([""], depth=1)
