"""Metrics registry: histogram buckets/percentiles, labeled identity, exposition."""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestHistogram:
    def test_empty_summary_omits_percentiles(self, registry):
        # Zero observations: percentiles are undefined, so they are left
        # out of the summary entirely rather than reported as null.
        h = registry.histogram("lat")
        summary = h.summary()
        assert summary == {"count": 0, "sum": 0.0}
        assert "p50" not in summary and "p99" not in summary
        assert h.percentile(0.5) is None

    def test_single_sample_reports_itself_at_every_quantile(self, registry):
        h = registry.histogram("lat")
        h.observe(0.0042)
        summary = h.summary()
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == 0.0042
        assert summary["p50"] == pytest.approx(0.0042)
        assert summary["p90"] == pytest.approx(0.0042)
        assert summary["p99"] == pytest.approx(0.0042)

    def test_bucket_boundary_is_inclusive_upper(self, registry):
        # Prometheus `le` semantics: a value equal to a bound counts in
        # that bound's bucket, not the next one.
        h = registry.histogram("lat", buckets=(0.005, 0.01))
        h.observe(0.005)
        assert h.cumulative_buckets() == [(0.005, 1), (0.01, 1), (math.inf, 1)]

    def test_overflow_lands_in_inf_bucket(self, registry):
        h = registry.histogram("lat", buckets=(0.001, 0.01))
        h.observe(5.0)
        assert h.cumulative_buckets() == [(0.001, 0), (0.01, 0), (math.inf, 1)]
        assert h.percentile(0.5) == 5.0  # +Inf bucket falls back to max

    def test_heavy_tail_separates_p50_and_p99(self, registry):
        h = registry.histogram("lat")
        for _ in range(98):
            h.observe(0.002)
        h.observe(1.9)
        h.observe(2.1)
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["p50"] < 0.01
        assert summary["p99"] > 1.0
        assert summary["p50"] < summary["p90"] <= summary["p99"]
        assert summary["max"] == 2.1

    def test_percentiles_clamped_to_observed_range(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        h.observe(2.0)
        h.observe(3.0)
        assert 2.0 <= h.percentile(0.5) <= 3.0
        assert h.percentile(0.99) <= 3.0

    def test_sum_and_mean(self, registry):
        h = registry.histogram("lat")
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        summary = h.summary()
        assert summary["sum"] == pytest.approx(0.6)
        assert summary["mean"] == pytest.approx(0.2)

    def test_invalid_buckets_rejected(self, registry):
        with pytest.raises(ConfigError):
            registry.histogram("bad", buckets=(0.5, 0.1))

    def test_conflicting_buckets_rejected(self, registry):
        registry.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ConfigError):
            registry.histogram("lat", buckets=(0.2, 2.0))


class TestLabeledIdentity:
    def test_same_name_and_labels_aggregate(self, registry):
        registry.counter("req", endpoint="expand").inc()
        registry.counter("req", endpoint="expand").inc(2)
        assert registry.get_value("req", endpoint="expand") == 3

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("req", endpoint="expand", status="ok")
        b = registry.counter("req", status="ok", endpoint="expand")
        assert a is b

    def test_different_labels_are_separate_series(self, registry):
        registry.counter("req", endpoint="expand").inc()
        registry.counter("req", endpoint="target").inc(5)
        assert registry.get_value("req", endpoint="expand") == 1
        assert registry.get_value("req", endpoint="target") == 5

    def test_type_conflict_rejected(self, registry):
        registry.counter("thing")
        with pytest.raises(ConfigError):
            registry.gauge("thing")

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ConfigError):
            registry.counter("req").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("version")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2


class TestExposition:
    def test_prometheus_text_format(self, registry):
        registry.counter("req_total", help="requests", endpoint="expand").inc(2)
        registry.gauge("active_version", kind="graph").set(7)
        registry.histogram("lat", buckets=(0.01, 0.1)).observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{endpoint="expand"} 2' in text
        assert 'active_version{kind="graph"} 7' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.01"} 0' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_label_values_escaped(self, registry):
        registry.counter("req", phrase='say "hi"\n').inc()
        text = registry.render_prometheus()
        assert 'phrase="say \\"hi\\"\\n"' in text

    def test_snapshot_omits_percentiles_of_empty_histograms(self, registry):
        registry.histogram("lat", endpoint="expand")  # series exists, no samples
        entry = registry.snapshot()["histograms"]["lat"][0]
        assert entry["count"] == 0 and entry["sum"] == 0.0
        assert "p50" not in entry and "p90" not in entry and "p99" not in entry

    def test_snapshot_is_json_safe(self, registry):
        registry.counter("req", endpoint="expand").inc()
        registry.histogram("lat").observe(0.2)
        registry.gauge("v").set(1)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # no numpy scalars, no inf
        assert snapshot["counters"]["req"][0]["value"] == 1
        assert snapshot["histograms"]["lat"][0]["count"] == 1
        assert snapshot["histograms"]["lat"][0]["p50"] == pytest.approx(0.2)

    def test_collector_runs_at_readout_time(self, registry):
        source = {"hits": 0}
        series = registry.counter("cache_hits_total")
        registry.add_collector(lambda: series.set_total(source["hits"]))
        source["hits"] = 9
        assert 'cache_hits_total 9' in registry.render_prometheus()
        source["hits"] = 12
        assert registry.snapshot()["counters"]["cache_hits_total"][0]["value"] == 12


class TestPrometheusConformance:
    """Text-format 0.0.4 edge cases a real scraper would reject."""

    def test_help_escapes_backslash_and_newline(self, registry):
        registry.counter("req", help="path C:\\tmp\nsecond line").inc()
        text = registry.render_prometheus()
        assert "# HELP req path C:\\\\tmp\\nsecond line" in text
        assert "\nsecond line" not in text.split("# TYPE")[0].replace(
            "\\nsecond line", ""
        )  # the raw newline never reaches the HELP line

    def test_help_does_not_escape_quotes(self, registry):
        # Quotes are legal in HELP text — only label *values* escape them.
        registry.counter("req", help='say "hi"').inc()
        assert '# HELP req say "hi"' in registry.render_prometheus()

    def test_label_values_escape_backslash_quote_newline(self, registry):
        registry.counter("req", phrase='a\\b "c"\nd').inc()
        text = registry.render_prometheus()
        assert 'phrase="a\\\\b \\"c\\"\\nd"' in text
        # No un-escaped newline inside any sample line.
        for line in text.splitlines():
            assert "\n" not in line

    def test_histogram_renders_explicit_inf_bucket_last(self, registry):
        h = registry.histogram("lat", buckets=(0.01,))
        h.observe(5.0)
        lines = registry.render_prometheus().splitlines()
        bucket_lines = [l for l in lines if l.startswith("lat_bucket")]
        assert bucket_lines[-1] == 'lat_bucket{le="+Inf"} 1'
        # +Inf is cumulative: it must equal lat_count.
        assert 'lat_count 1' in lines

    def test_inf_bucket_cumulative_equals_count_with_labels(self, registry):
        h = registry.histogram("lat", buckets=(0.01, 0.1), endpoint="expand")
        for v in (0.001, 0.05, 9.0):
            h.observe(v)
        text = registry.render_prometheus()
        assert 'lat_bucket{endpoint="expand",le="+Inf"} 3' in text
        assert 'lat_count{endpoint="expand"} 3' in text

    def test_series_accessor_returns_label_pairs(self, registry):
        registry.counter("req", endpoint="a", status="ok").inc(2)
        registry.counter("req", endpoint="b", status="error").inc()
        pairs = registry.series("req")
        assert len(pairs) == 2
        labels = {tuple(sorted(d.items())) for d, _ in pairs}
        assert (("endpoint", "a"), ("status", "ok")) in labels
        assert registry.series("nope") == []


class TestDisabledRegistry:
    def test_everything_is_a_cheap_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("req").inc()
        registry.gauge("v").set(3)
        registry.histogram("lat").observe(0.5)
        registry.add_collector(lambda: 1 / 0)  # never stored, never run
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {"enabled": False}
        assert registry.get_value("req") is None
