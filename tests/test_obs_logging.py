"""Structured logging: JSON records, level gating, family sinks, request ids."""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.obs import ManualClock, StructuredLogger
from repro.obs.context import RequestLog


@pytest.fixture()
def clock():
    return ManualClock(start=1_000.0)


class TestRecordShape:
    def test_record_fields_and_frozen_timestamp(self, clock):
        logger = StructuredLogger("serving", clock=clock)
        logger.info("hot_swap", kind="graph", version=2)
        (record,) = logger.records()
        assert record == {
            "ts": 1_000.0, "level": "info", "component": "serving",
            "event": "hot_swap", "kind": "graph", "version": 2,
        }

    def test_stream_emits_one_json_line_per_record(self, clock):
        stream = io.StringIO()
        logger = StructuredLogger("x", clock=clock, stream=stream)
        logger.info("a", n=1)
        logger.warning("b")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "a"
        assert json.loads(lines[1])["level"] == "warning"

    def test_no_stream_by_default_ring_only(self, clock):
        logger = StructuredLogger("x", clock=clock)
        logger.info("quiet")
        assert len(logger.records()) == 1  # nowhere to write, nothing raised


class TestLevelGating:
    def test_debug_suppressed_at_default_level(self, clock):
        logger = StructuredLogger("x", clock=clock)
        logger.debug("noise")
        logger.info("signal")
        assert [r["event"] for r in logger.records()] == ["signal"]

    def test_set_level_applies_family_wide(self, clock):
        root = StructuredLogger("root", clock=clock)
        child = root.child("child")
        root.set_level("error")
        child.warning("dropped")
        child.error("kept")
        assert [r["event"] for r in root.records()] == ["kept"]

    def test_unknown_level_rejected(self, clock):
        logger = StructuredLogger("x", clock=clock)
        with pytest.raises(ConfigError):
            logger.set_level("loud")
        with pytest.raises(ConfigError):
            StructuredLogger("x", clock=clock, min_level="loud")

    def test_disabled_logger_is_a_noop(self, clock):
        logger = StructuredLogger("x", clock=clock, enabled=False)
        logger.error("boom")
        assert logger.records() == []


class TestFamilySink:
    def test_children_share_one_ring(self, clock):
        root = StructuredLogger("system", clock=clock)
        drift = root.child("drift")
        alerts = root.child("alerts")
        drift.info("drift_report")
        alerts.warning("alert_firing")
        components = [r["component"] for r in root.records()]
        assert components == ["drift", "alerts"]

    def test_attach_stream_later_covers_whole_family(self, clock):
        root = StructuredLogger("system", clock=clock)
        child = root.child("serving")
        stream = io.StringIO()
        root.attach_stream(stream)
        child.info("after")
        assert json.loads(stream.getvalue())["component"] == "serving"

    def test_ring_capacity_evicts_oldest(self, clock):
        logger = StructuredLogger("x", clock=clock, capacity=3)
        for i in range(5):
            logger.info("e", i=i)
        assert [r["i"] for r in logger.records()] == [2, 3, 4]

    def test_records_filter_by_level_and_event(self, clock):
        logger = StructuredLogger("x", clock=clock)
        logger.info("a")
        logger.warning("a")
        logger.warning("b")
        assert len(logger.records(level="warning")) == 2
        assert len(logger.records(event="a")) == 2
        assert len(logger.records(level="warning", event="a")) == 1


class TestTraceCorrelation:
    def test_log_inside_span_carries_trace_ids(self, clock):
        """Inside a request every line carries the ambient record's id —
        and nothing else (no ``trace_id`` / ``span_id``)."""
        logger = StructuredLogger("x", clock=clock)
        requests = RequestLog(clock)
        first = requests.open("expand")
        logger.info("first_event")
        requests.close(first, ok=True, code=None)
        second = requests.open("target")
        logger.info("second_event")
        requests.close(second, ok=True, code=None)
        first_rec, second_rec = logger.records()
        assert first_rec["request_id"] == first.id
        assert second_rec["request_id"] == second.id != first.id
        for record in (first_rec, second_rec):
            assert "trace_id" not in record and "span_id" not in record

    def test_log_outside_any_span_has_no_ids(self, clock):
        logger = StructuredLogger("x", clock=clock)
        logger.info("bare")
        (record,) = logger.records()
        assert "request_id" not in record
        assert "trace_id" not in record and "span_id" not in record
