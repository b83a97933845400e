"""Request record: ambient binding, annotations, phases, the /journeys ring."""

import json

import pytest

from repro.obs import ManualClock
from repro.obs.context import (
    RING_CAPACITY,
    RequestLog,
    annotate,
    current_record,
    current_request_id,
    phase,
)


@pytest.fixture()
def clock():
    return ManualClock(start=5_000.0)


@pytest.fixture()
def log(clock):
    return RequestLog(clock)


def _finish(log, endpoint="expand", ok=True, code=None, **fields):
    """One closed record, annotated the way the serving layers would."""
    record = log.open(endpoint)
    annotate(**fields)
    log.close(record, ok, code, graph_version=3, preference_version=2)
    return record


class TestAmbientBinding:
    def test_no_context_outside_any_request(self):
        assert current_record() is None
        assert current_request_id() is None

    def test_bind_unbind_roundtrip(self, log):
        record = log.open("expand")
        try:
            assert current_record() is record
            assert current_request_id() == record.id
        finally:
            log.close(record)
        assert current_record() is None

    def test_correlation_ids_are_unique_and_increasing(self, log):
        first = _finish(log)
        second = _finish(log)
        assert second.id == first.id + 1

    def test_annotate_is_noop_outside_a_request(self):
        annotate(cache="miss")  # must not raise and must not leak anywhere
        assert current_record() is None

    def test_annotate_sets_fields_on_the_bound_record(self, log):
        record = log.open("target")
        try:
            assert record.cache is None and record.queue_wait_ms is None
            annotate(cache="miss")
            annotate(queue_wait_ms=2.5)
            assert record.cache == "miss"
            assert record.queue_wait_ms == 2.5
        finally:
            log.close(record)

    def test_disabled_log_opens_nothing(self, clock):
        log = RequestLog(clock, enabled=False)
        assert log.open("expand") is None
        assert current_record() is None
        with phase("api"):  # still a no-op
            pass
        assert len(log) == 0


class TestPhases:
    def test_phase_is_a_noop_outside_a_request(self):
        with phase("khop"):
            pass
        assert current_record() is None

    def test_nested_phases_record_depth_start_and_duration(self, log, clock):
        record = log.open("expand")
        clock.advance(0.001)
        with phase("api"):
            clock.advance(0.002)
            with phase("runtime"):
                clock.advance(0.003)
            with phase("runtime"):
                clock.advance(0.001)
        with phase("to_dict"):
            clock.advance(0.0005)
        log.close(record, ok=True, code=None)
        (row,) = log.tail()
        assert row["phases"] == [
            ["api", 0, 1000.0, 6000.0],
            ["runtime", 1, 3000.0, 3000.0],
            ["runtime", 1, 6000.0, 1000.0],
            ["to_dict", 0, 7000.0, 500.0],
        ]
        assert row["duration_ms"] == pytest.approx(7.5)

    def test_phase_closes_when_its_body_raises(self, log, clock):
        record = log.open("expand")
        with pytest.raises(ValueError):
            with phase("api"):
                clock.advance(0.004)
                raise ValueError("boom")
        with phase("after"):
            pass
        log.close(record)
        (row,) = log.tail()
        assert row["phases"] == [["api", 0, 0.0, 4000.0], ["after", 0, 4000.0, 0.0]]

    def test_phase_totals_sum_the_ring_per_path(self, log, clock):
        for inner in (0.003, 0.001):
            record = log.open("expand")
            with phase("api"):
                clock.advance(0.002)
                with phase("runtime"):
                    clock.advance(inner)
            with phase("runtime"):  # same name, other parent: its own row
                clock.advance(0.0005)
            log.close(record, ok=True, code=None)
        totals = {row["phase"]: row for row in log.phase_totals()}
        assert totals["api"] == {
            "phase": "api", "count": 2, "total_us": 8000.0, "self_us": 4000.0,
        }
        assert totals["api;runtime"]["total_us"] == 4000.0
        assert totals["api;runtime"]["self_us"] == 4000.0
        assert totals["runtime"]["count"] == 2
        assert totals["runtime"]["total_us"] == 1000.0
        log.clear()
        assert log.phase_totals() == []


class TestJourneyLog:
    def test_render_basic_fields(self, log):
        record = _finish(log)
        (journey,) = log.tail()
        assert journey["id"] == record.id
        assert journey["endpoint"] == "expand"
        assert journey["ts"] == 5_000.0
        assert journey["duration_ms"] == 0.0  # the clock never moved
        assert journey["ok"] is True and journey["code"] is None
        assert journey["graph_version"] == 3
        assert journey["preference_version"] == 2
        assert journey["queue_wait_ms"] is None
        assert journey["phases"] == []

    def test_annotated_fields_render_verbatim(self, log):
        _finish(log, cache="miss", hops=(1, 4, 9), queue_wait_ms=12.5)
        (journey,) = log.tail()
        assert journey["cache"] == "miss"
        assert journey["hops"] == [1, 4, 9]
        assert journey["queue_wait_ms"] == 12.5

    def test_failed_expand_renders_no_hops_and_no_cache_claim(self, log):
        _finish(log, ok=False, code="invalid_argument")
        (journey,) = log.tail()
        assert journey["hops"] is None
        assert journey["cache"] is None
        assert journey["ok"] is False and journey["code"] == "invalid_argument"

    def test_shed_flag_is_what_close_is_told(self, log):
        """One code can be either: ``deadline_exceeded`` is a shed from
        admission (with a retry hint) and not from the runtime (without
        one), so the closer says which; nothing is derived from the code."""
        for shed in (True, False):
            log.clear()
            log.close(log.open("expand"), False, "deadline_exceeded", shed=shed)
            assert log.tail()[0]["shed"] is shed
        log.clear()
        _finish(log, ok=False, code="queue_full")
        assert log.tail()[0]["shed"] is False

    def test_endpoint_passes_through_verbatim(self, log):
        _finish(log, endpoint="replay.expand")
        assert log.tail()[0]["endpoint"] == "replay.expand"

    def test_escaped_request_closes_as_internal_error(self, log):
        record = log.open("expand")
        log.close(record)  # the opener's crash path passes the record alone
        (journey,) = log.tail()
        assert journey["ok"] is False and journey["code"] == "internal"
        assert current_record() is None

    def test_ring_is_bounded_and_tail_limits(self, log):
        records = [_finish(log) for _ in range(RING_CAPACITY + 2)]
        assert len(log) == RING_CAPACITY
        assert [j["id"] for j in log.tail()] == [r.id for r in records[2:]]
        assert [j["id"] for j in log.tail(2)] == [r.id for r in records[-2:]]
        assert log.tail(0) == []

    def test_ndjson_is_one_json_object_per_line(self, log):
        first, second = _finish(log), _finish(log)
        lines = log.to_ndjson().splitlines()
        assert [json.loads(line)["id"] for line in lines] == [first.id, second.id]
        assert log.to_ndjson(0) == ""
