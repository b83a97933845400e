"""A response is labelled with the generation that answered it.

Each request acquires the active artifacts once; its answer is computed
from that value and its envelope (and request record) names that value's
versions, even when a swap lands while the answer is being computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import Observability
from repro.online import EGLSystem
from repro.online.api import EGLService
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.serving.frontend import QueryFrontend
from repro.text.sequence_extractor import UserEntitySequence


def reasoner(system, world, edges) -> GraphReasoner:
    graph = EntityGraph.from_edge_list(
        world.num_entities, edges, [0.9] * len(edges), [0] * len(edges)
    )
    return GraphReasoner(graph, system.pipeline.entity_dict)


def preferences(world, seed) -> PreferenceStore:
    rng = np.random.default_rng(seed)
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(40)
    }
    store = PreferenceStore(rng.normal(size=(world.num_entities, 6)))
    return store.build(sequences, world.num_users)


@pytest.fixture()
def system(world, tmp_path):
    system = EGLSystem(world, artifact_root=tmp_path, obs=Observability())
    system.runtime.activate_graph(reasoner(system, world, [(0, 1)]), version=1)
    system.runtime.activate_preferences(preferences(world, seed=1), version=1)
    return system


def swap_graph_mid_call(system, world) -> None:
    """Generation 1's next expansion activates generation 2 (edge 0-3)
    before it computes its own answer."""
    generation_1 = system.runtime.acquire().reasoner
    expand = generation_1.expand

    def swapping_expand(*args, **kwargs):
        system.runtime.activate_graph(reasoner(system, world, [(0, 3)]), version=2)
        return expand(*args, **kwargs)

    generation_1.expand = swapping_expand


def swap_preferences_mid_call(system, world, method: str) -> None:
    """Generation 1's next ``method`` call activates preference generation 2
    before it computes its own answer (once: the activation check scores
    generation 1 through the same methods)."""
    generation_1 = system.runtime.acquire().preference_store
    score = getattr(generation_1, method)

    def swapping_score(*args, **kwargs):
        delattr(generation_1, method)
        system.runtime.activate_preferences(preferences(world, seed=2), version=2)
        return score(*args, **kwargs)

    setattr(generation_1, method, swapping_score)


def test_expansion_answered_by_generation_1_is_labelled_1(system, world):
    swap_graph_mid_call(system, world)
    response = EGLService(system).expand({"phrases": [world.entities[0].name]})
    assert response.ok
    assert [e["entity_id"] for e in response.payload["entities"]] == [0, 1]
    assert response.graph_version == 1
    assert system.runtime.versions()["graph_version"] == 2


def test_target_answered_by_generation_1_is_labelled_1(system, world):
    want = system.runtime.acquire().preference_store.top_users_for_entities([0, 1], 5)
    swap_preferences_mid_call(system, world, "top_users_for_entities")
    response = EGLService(system).target({"entity_ids": [0, 1], "k": 5})
    assert response.ok
    assert [u["user_id"] for u in response.payload["users"]] == [u.user_id for u in want]
    assert response.preference_version == 1
    assert system.runtime.versions()["preference_version"] == 2


def test_target_batch_answered_by_generation_1_is_labelled_1(system, world):
    store = system.runtime.acquire().preference_store
    want = store.top_users_for_entity_sets([[0, 1], [2]], 5, [None, None])
    swap_preferences_mid_call(system, world, "top_users_for_entity_sets")
    response = EGLService(system).target_batch(
        {"requests": [{"entity_ids": [0, 1], "k": 5}, {"entity_ids": [2], "k": 5}]}
    )
    assert response.ok
    assert [
        [u["user_id"] for u in result["users"]] for result in response.payload["results"]
    ] == [[u.user_id for u in users] for users in want]
    assert response.preference_version == 1
    assert system.runtime.versions()["preference_version"] == 2


@pytest.mark.parametrize("endpoint", ["expand", "target", "target_batch"])
def test_dispatch_closes_the_record_with_the_answering_versions(system, world, endpoint):
    if endpoint == "expand":
        swap_graph_mid_call(system, world)
        payload = {"phrases": [world.entities[0].name]}
    elif endpoint == "target":
        swap_preferences_mid_call(system, world, "top_users_for_entities")
        payload = {"entity_ids": [0, 1], "k": 5}
    else:
        swap_preferences_mid_call(system, world, "top_users_for_entity_sets")
        payload = {"requests": [{"entity_ids": [0, 1], "k": 5}]}
    service = EGLService(system)
    status, envelope = QueryFrontend(service).dispatch(endpoint, payload)
    assert status == 200 and envelope["ok"]
    assert (envelope["graph_version"], envelope["preference_version"]) == (1, 1)
    (record,) = service.obs.journeys.tail()
    assert (record["graph_version"], record["preference_version"]) == (1, 1)
    assert system.runtime.versions()["graph_version" if endpoint == "expand" else
                                     "preference_version"] == 2
