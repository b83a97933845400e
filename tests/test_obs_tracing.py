"""Injectable clocks, and what the observability bundle does with them."""

import pytest

from repro.obs import ManualClock, Observability, phase


@pytest.fixture()
def clock():
    return ManualClock(start=1_000.0)


class TestClock:
    def test_manual_clock_only_moves_on_advance(self, clock):
        assert clock.time() == 1_000.0
        assert clock.perf() == 0.0
        clock.advance(2.5)
        assert clock.time() == 1_002.5
        assert clock.perf() == 2.5

    def test_cannot_move_backwards(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestDisabledTracer:
    def test_disabled_bundle_produces_no_spans(self):
        obs = Observability.disabled()
        record = obs.journeys.open("expand")
        assert record is None  # nothing is opened, so nothing is bound
        with phase("api"):
            pass
        obs.journeys.close(record)
        assert obs.journeys.tail() == []
        assert obs.metrics.render_prometheus() == ""

    def test_shared_clock_across_bundle(self):
        clock = ManualClock(start=1_000.0)
        obs = Observability(clock=clock)
        assert obs.clock is clock
        record = obs.journeys.open("expand")
        clock.advance(0.25)
        obs.logger.info("mid_request")
        obs.journeys.close(record, ok=True, code=None)
        (journey,) = obs.journeys.tail()
        assert journey["ts"] == 1_000.25 and journey["duration_ms"] == 250.0
        (line,) = obs.logger.records(event="mid_request")
        assert line["ts"] == 1_000.25 and line["request_id"] == journey["id"]
