"""Window aggregation semantics: tumbling, sliding, grouping, watermarks."""

from __future__ import annotations

import pytest

from repro.api import Q, connect
from repro.core import ProvenanceRecord, Timestamp, TupleSet
from repro.errors import ConfigurationError
from repro.stream import WindowAggregator, WindowEvent, WindowSpec


def _tuple_set(t: float, city: str = "london", speed: float = 30.0) -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "city": city,
            "mean_speed": speed,
            "window_start": Timestamp(t),
            "window_end": Timestamp(t + 59.0),
        }
    )
    return TupleSet([], record)


def _record(t: float, **extra) -> ProvenanceRecord:
    return ProvenanceRecord({"window_start": Timestamp(t), **extra})


class TestWindowSpecValidation:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(size_seconds=0)

    def test_rejects_slide_larger_than_size(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(size_seconds=10, slide_seconds=20)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(size_seconds=10, aggregate="median")

    def test_value_aggregates_need_a_value_attr(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(size_seconds=10, aggregate="mean")


class TestTumblingWindows:
    def test_count_per_window_emits_on_watermark(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=120.0))
        assert aggregator.observe(_record(0.0)) == []
        assert aggregator.observe(_record(60.0)) == []
        # Crossing into the next window closes the first one.
        emitted = aggregator.observe(_record(120.0))
        assert emitted == [(0.0, 120.0, None, 2.0, 2)]

    def test_mean_min_max_sum(self):
        for aggregate, expected in (("mean", 20.0), ("min", 10.0), ("max", 30.0), ("sum", 60.0)):
            aggregator = WindowAggregator(
                WindowSpec(size_seconds=100.0, aggregate=aggregate, value_attr="speed")
            )
            for t, speed in ((0.0, 10.0), (10.0, 20.0), (20.0, 30.0)):
                aggregator.observe(_record(t, speed=speed))
            emitted = aggregator.observe(_record(150.0, speed=0.0))
            assert emitted == [(0.0, 100.0, None, expected, 3)]

    def test_group_by_partitions_each_window(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0, group_by="city"))
        aggregator.observe(_record(0.0, city="london"))
        aggregator.observe(_record(10.0, city="boston"))
        aggregator.observe(_record(20.0, city="london"))
        emitted = aggregator.observe(_record(200.0, city="paris"))
        assert sorted((group, count) for _, _, group, _, count in emitted) == [
            ("boston", 1),
            ("london", 2),
        ]

    def test_mean_ignores_records_missing_the_value(self):
        """A matched record without value_attr must not dilute the mean."""
        aggregator = WindowAggregator(
            WindowSpec(size_seconds=100.0, aggregate="mean", value_attr="speed")
        )
        aggregator.observe(_record(0.0, speed=10.0))
        aggregator.observe(_record(10.0))  # matched, but carries no speed
        emitted = aggregator.flush()
        assert emitted == [(0.0, 100.0, None, 10.0, 2)]  # mean 10.0, count 2

    def test_mean_of_only_valueless_records_is_none(self):
        aggregator = WindowAggregator(
            WindowSpec(size_seconds=100.0, aggregate="mean", value_attr="speed")
        )
        aggregator.observe(_record(0.0))
        assert aggregator.flush() == [(0.0, 100.0, None, None, 1)]

    def test_records_without_event_time_are_skipped(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0))
        assert aggregator.observe(ProvenanceRecord({"city": "london"})) == []
        assert aggregator.skipped_records == 1

    def test_late_record_behind_emitted_window_is_counted(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0))
        aggregator.observe(_record(0.0))
        aggregator.observe(_record(250.0))  # closes [0, 100)
        aggregator.observe(_record(10.0))  # too late for [0, 100)
        assert aggregator.late_records == 1

    def test_late_count_covers_partially_missed_sliding_windows(self):
        """One late count per already-emitted window the record missed,
        even when the record still lands in an open sliding window."""
        aggregator = WindowAggregator(WindowSpec(size_seconds=10.0, slide_seconds=5.0))
        aggregator.observe(_record(2.0))
        aggregator.observe(_record(11.0))  # closes [0, 10); [5, 15) stays open
        aggregator.observe(_record(7.0))  # belonged in both; missed [0, 10)
        assert aggregator.late_records == 1
        emitted = aggregator.flush()
        counts = {(start, end): count for start, end, _, _, count in emitted}
        assert counts[(5.0, 15.0)] == 2  # the open window did admit it

    def test_flush_closes_open_windows(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0))
        aggregator.observe(_record(0.0))
        aggregator.observe(_record(10.0))
        assert aggregator.flush() == [(0.0, 100.0, None, 2.0, 2)]
        assert aggregator.flush() == []  # nothing left open


class TestSlidingWindows:
    def test_each_record_lands_in_every_covering_window(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0, slide_seconds=50.0))
        aggregator.observe(_record(60.0))  # covered by [0,100) and [50,150)
        emitted = aggregator.observe(_record(200.0))
        closed = [(start, end, count) for start, end, _, _, count in emitted]
        assert (0.0, 100.0, 1) in closed
        assert (50.0, 150.0, 1) in closed

    def test_windows_emit_in_start_order(self):
        aggregator = WindowAggregator(WindowSpec(size_seconds=100.0, slide_seconds=25.0))
        aggregator.observe(_record(80.0))
        emitted = aggregator.observe(_record(400.0))
        starts = [start for start, *_ in emitted]
        assert starts == sorted(starts)


class TestWindowedSubscriptions:
    def test_client_window_subscription_end_to_end(self):
        with connect("memory://") as client:
            subscription = client.subscribe(
                Q.attr("city") == "london",
                window=WindowSpec(
                    size_seconds=120.0, aggregate="mean", value_attr="mean_speed"
                ),
            )
            client.publish_many(
                [
                    _tuple_set(0.0, speed=10.0),
                    _tuple_set(60.0, speed=30.0),
                    _tuple_set(60.0, city="boston", speed=99.0),  # filtered out
                    _tuple_set(120.0, speed=50.0),
                ]
            )
            events = subscription.drain()
            assert len(events) == 1
            event = events[0]
            assert isinstance(event, WindowEvent)
            assert (event.window_start, event.window_end) == (0.0, 120.0)
            assert event.value == 20.0
            assert event.count == 2

    def test_flush_windows_via_the_client(self):
        with connect("memory://") as client:
            subscription = client.subscribe(
                Q.everything(), window=WindowSpec(size_seconds=600.0)
            )
            client.publish(_tuple_set(0.0))
            assert subscription.drain() == []  # window still open
            assert client.flush_windows() == 1
            events = subscription.drain()
            assert [e.count for e in events] == [1]
