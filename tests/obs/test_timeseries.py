"""The time-series store: slot rings, rate derivation, exposition."""

from __future__ import annotations

import random

import pytest

from repro.obs import Histogram, TimeSeriesStore, openmetrics
from repro.obs.export import metric_name


class TestSlots:
    def test_interval_and_retention_are_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(interval_s=0)
        with pytest.raises(ValueError):
            TimeSeriesStore(retention=1)

    def test_gauge_same_slot_keeps_last_value(self):
        store = TimeSeriesStore(interval_s=1.0, retention=10)
        store.observe_gauge("g", 5.1, 1.0)
        store.observe_gauge("g", 5.9, 2.0)
        assert store.points("g") == [(5.0, 2.0)]

    def test_points_carry_slot_start_times(self):
        store = TimeSeriesStore(interval_s=2.0, retention=10)
        store.observe_gauge("g", 1.0, 10.0)
        store.observe_gauge("g", 4.5, 20.0)
        assert store.points("g") == [(0.0, 10.0), (4.0, 20.0)]

    def test_retention_evicts_oldest_slots(self):
        store = TimeSeriesStore(interval_s=1.0, retention=3)
        for t in range(6):
            store.observe_gauge("g", float(t), float(t))
        assert [t for t, _ in store.points("g")] == [3.0, 4.0, 5.0]

    def test_kind_conflicts_are_refused(self):
        store = TimeSeriesStore()
        store.observe_gauge("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            store.observe_counter("x", 1.0, 2.0)

    def test_window_filters_points(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        for t in range(10):
            store.observe_gauge("g", float(t), float(t))
        assert store.points("g", start=7.0) == [(7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert store.latest("g") == (9.0, 9.0)
        assert store.latest("missing") is None


class TestRate:
    def test_rate_is_increase_over_span(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        for t in range(5):
            store.observe_counter("c", float(t), float(t * 10))
        assert store.rate("c") == pytest.approx(10.0)

    def test_rate_survives_counter_resets(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        # 0 -> 30 then a restart back to 0 -> 10: the negative step is
        # dropped, not summed as a -30 spike.
        for t, value in enumerate([0, 30, 0, 10]):
            store.observe_counter("c", float(t), float(value))
        assert store.rate("c") == pytest.approx((30 + 10) / 3.0)

    def test_rate_needs_two_points_and_a_counter(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        store.observe_counter("c", 0.0, 5.0)
        assert store.rate("c") is None
        store.observe_gauge("g", 0.0, 5.0)
        store.observe_gauge("g", 1.0, 6.0)
        assert store.rate("g") is None

    def test_rate_windows_use_recent_points_only(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        for t, value in enumerate([0, 100, 110, 120]):
            store.observe_counter("c", float(t), float(value))
        assert store.rate("c", window_s=2.0) == pytest.approx(10.0)


class TestHistogramSeries:
    def test_deltas_hold_only_the_intervals_observations(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        histogram = Histogram("ms")
        histogram.observe(10.0)
        store.observe_histogram("ms", 0.0, histogram.state())
        histogram.observe(20.0)
        histogram.observe(30.0)
        store.observe_histogram("ms", 1.0, histogram.state())
        points = store.points("ms")
        assert [state.count for _, state in points] == [1, 2]
        assert points[1][1].total == pytest.approx(50.0)

    def test_window_percentiles_match_the_live_histogram(self):
        """Merged per-interval deltas == the cumulative distribution."""
        rng = random.Random(11)
        store = TimeSeriesStore(interval_s=1.0, retention=600)
        histogram = Histogram("ms")
        for t in range(50):
            for _ in range(40):
                histogram.observe(rng.lognormvariate(2.0, 0.8))
            store.observe_histogram("ms", float(t), histogram.state())
        merged = store.window_state("ms")
        assert merged.count == 2000
        for q in (0.5, 0.95, 0.99):
            assert store.quantile("ms", q) == pytest.approx(histogram.quantile(q))

    def test_quantile_without_data_is_none(self):
        store = TimeSeriesStore()
        assert store.quantile("missing", 0.5) is None


class TestSnapshot:
    def test_snapshot_is_json_safe_and_schema_stable(self):
        import json

        store = TimeSeriesStore(interval_s=1.0, retention=10)
        store.observe_counter("c", 0.0, 1.0)
        store.observe_gauge("g", 0.0, 2.0)
        histogram = Histogram("ms")
        histogram.observe(5.0)
        store.observe_histogram("ms", 0.0, histogram.state())
        snapshot = store.snapshot()
        json.dumps(snapshot)  # JSON-safe end to end
        assert set(snapshot) == {"interval_s", "retention", "series"}
        for entry in snapshot["series"].values():
            assert set(entry) == {"kind", "points"}
        summary = snapshot["series"]["ms"]["points"][0][1]
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}

    def test_snapshot_names_scopes_the_document(self):
        store = TimeSeriesStore()
        store.observe_gauge("a", 0.0, 1.0)
        store.observe_gauge("b", 0.0, 2.0)
        assert set(store.snapshot(names=["b"])["series"]) == {"b"}


class TestOpenMetrics:
    def test_exposition_grammar(self):
        store = TimeSeriesStore(interval_s=1.0, retention=10)
        for t in range(3):
            store.observe_counter("daemon.default.query.calls", float(t), float(t))
        store.observe_gauge("daemon.connections", 2.0, 4.0)
        histogram = Histogram("ms")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        store.observe_histogram("daemon.default.query.ms", 2.0, histogram.state())
        text = openmetrics(store, extra_gauges={"daemon.uptime_s": 12.5})
        assert text.endswith("# EOF\n")
        assert "# TYPE daemon_default_query_calls counter" in text
        assert "daemon_default_query_calls_total 2" in text
        assert "# TYPE daemon_connections gauge" in text
        assert "daemon_connections 4" in text
        assert 'daemon_default_query_ms{quantile="0.99"}' in text
        assert "daemon_default_query_ms_count 3" in text
        assert "daemon_default_query_ms_sum 6" in text
        assert "daemon_uptime_s 12.5" in text

    def test_names_scoping_limits_series(self):
        store = TimeSeriesStore()
        store.observe_gauge("daemon.alpha.depth", 0.0, 1.0)
        store.observe_gauge("daemon.beta.depth", 0.0, 2.0)
        text = openmetrics(store, names=["daemon.alpha.depth"])
        assert "daemon_alpha_depth" in text
        assert "daemon_beta_depth" not in text

    def test_metric_name_sanitizes_to_charset(self):
        assert metric_name("daemon.default.query.ms") == "daemon_default_query_ms"
        assert metric_name("9lives") == "_9lives"

    def test_empty_store_is_just_eof(self):
        assert openmetrics(TimeSeriesStore()) == "# EOF\n"
