"""Satellite acceptance: one expand request, one correlation id, four surfaces.

A single cold ``expand`` under a frozen ManualClock must be joinable by
the same correlation id in (1) the structured log ring, (2) the trace
export, (3) the ``/journeys`` record, and (4) a latency-histogram
exemplar — the whole point of the request-journey refactor.
"""

import json

import numpy as np
import pytest

from repro.graph import EntityGraph
from repro.obs import ManualClock, Observability
from repro.online import EGLSystem
from repro.online.api import EGLService, ExpandRequest
from repro.online.reasoning import GraphReasoner
from repro.preference.store import PreferenceStore
from repro.text.sequence_extractor import UserEntitySequence


@pytest.fixture()
def frozen_service(world):
    obs = Observability(clock=ManualClock(start=9_000.0))
    system = EGLSystem(world, obs=obs)
    graph = EntityGraph.from_edge_list(
        world.num_entities, [(0, 1), (1, 2)], [0.9, 0.8], [0, 0]
    )
    reasoner = GraphReasoner(graph, system.pipeline.entity_dict)
    system.runtime.activate_graph(reasoner, version=1, tag="week-0")
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(world.num_entities, 6))
    sequences = {
        u: UserEntitySequence(u, list(rng.integers(0, world.num_entities, size=6)))
        for u in range(30)
    }
    prefs = PreferenceStore(embeddings).build(sequences, world.num_users)
    system.runtime.activate_preferences(prefs, version=1, tag="daily-1")
    obs.tracer.clear()
    return EGLService(system)


class TestOneRequestFourSurfaces:
    def test_single_expand_joins_across_all_surfaces(self, frozen_service, world):
        service = frozen_service
        obs = service.obs
        response = service.expand(
            ExpandRequest(phrases=[world.entities[0].name], depth=2)
        )
        assert response.ok

        # One journey record — its correlation id anchors the join.
        (journey,) = obs.journeys.tail()
        correlation_id = journey["correlation_id"]
        assert correlation_id > 0
        assert journey["endpoint"] == "expand"
        assert journey["cache"] == "miss"  # cold request
        assert journey["hops"] is not None and journey["hops"][0] == 1
        assert journey["duration_ms"] == response.elapsed_ms
        assert journey["ts"] == 9_000.0  # frozen clock

        # Surface 1: the structured log ring — the cold-path expand_miss
        # record carries the same correlation id.
        (miss_record,) = obs.logger.records(event="expand_miss")
        assert miss_record["correlation_id"] == correlation_id

        # Surface 2: the trace export — the api.expand root span and its
        # runtime child both carry the id.
        spans = obs.tracer.to_dicts()
        api_spans = [s for s in spans if s["name"] == "api.expand"]
        assert len(api_spans) == 1
        assert api_spans[0]["correlation_id"] == correlation_id
        assert journey["trace_id"] == api_spans[0]["trace_id"]
        child = [s for s in spans if s["name"] == "runtime.expand_compute"]
        assert child and child[0]["correlation_id"] == correlation_id

        # Surface 3: /journeys NDJSON serves the same record.
        routes = service.telemetry_routes()
        _ctype, body = routes["/journeys"]()
        (line,) = body.splitlines()
        assert json.loads(line)["correlation_id"] == correlation_id

        # Surface 4: histogram exemplars — both the API latency histogram
        # and the runtime's expansion-miss histogram link a bucket back to
        # this request.
        api_hist = obs.metrics.histogram(
            "api_request_seconds", help="End-to-end API request latency",
            endpoint="expand",
        )
        [(_bound, (value, ex_correlation, ex_trace))] = api_hist.exemplars()
        assert ex_correlation == correlation_id
        assert ex_trace == journey["trace_id"]
        assert value == response.elapsed_ms / 1000.0

        miss_hist = obs.metrics.histogram(
            "serving_expand_seconds",
            help="k-hop expansion latency on the runtime read path "
                 "(computed expansions only; cache hits are obs-free)",
            outcome="computed",
        )
        exemplars = miss_hist.exemplars()
        assert exemplars and exemplars[0][1][1] == correlation_id

        # The exemplar also reaches the OpenMetrics exposition, served
        # over the /metrics-openmetrics telemetry route.
        ctype, exposition = routes["/metrics-openmetrics"]()
        assert ctype.startswith("application/openmetrics-text")
        assert f'correlation_id="{correlation_id}"' in exposition
        assert exposition.rstrip().endswith("# EOF")

    def test_two_requests_mint_distinct_ids(self, frozen_service, world):
        service = frozen_service
        service.expand(ExpandRequest(phrases=[world.entities[0].name], depth=2))
        service.expand(ExpandRequest(phrases=[world.entities[1].name], depth=2))
        ids = [j["correlation_id"] for j in service.obs.journeys.tail()]
        assert len(set(ids)) == 2
        assert ids[1] == ids[0] + 1

    def test_warm_hit_renders_as_cache_hit_without_new_log_noise(
        self, frozen_service, world
    ):
        service = frozen_service
        phrase = world.entities[0].name
        service.expand(ExpandRequest(phrases=[phrase], depth=2))
        service.expand(ExpandRequest(phrases=[phrase], depth=2))
        cold, warm = service.obs.journeys.tail()
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        # Only the cold request logged an expand_miss.
        assert len(service.obs.logger.records(event="expand_miss")) == 1
