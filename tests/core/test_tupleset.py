"""Tests for sensor readings, tuple sets and the time windower."""

from __future__ import annotations

import pytest

from repro.core import Agent, GeoPoint, ProvenanceRecord, SensorReading, Timestamp, TupleSet, TupleSetWindower
from repro.errors import ProvenanceError


def _reading(seconds: float, sensor: str = "s1", **values):
    return SensorReading(
        sensor_id=sensor,
        timestamp=Timestamp(seconds),
        values=values or {"speed": 10.0},
        location=GeoPoint(51.5, -0.1),
    )


class TestSensorReading:
    def test_requires_sensor_id(self):
        with pytest.raises(ProvenanceError):
            SensorReading(sensor_id="", timestamp=Timestamp(0.0))

    def test_requires_timestamp_type(self):
        with pytest.raises(ProvenanceError):
            SensorReading(sensor_id="s", timestamp=1.0)  # type: ignore[arg-type]

    def test_value_lookup_with_default(self):
        reading = _reading(0.0, speed=42.0)
        assert reading.value("speed") == 42.0
        assert reading.value("missing", -1) == -1

    def test_size_accounts_for_values_and_location(self):
        small = SensorReading("s", Timestamp(0.0), {"a": 1})
        large = _reading(0.0, a=1, b=2, c=3)
        assert large.size_bytes() > small.size_bytes()


class TestTupleSet:
    def test_requires_provenance_record(self):
        with pytest.raises(ProvenanceError):
            TupleSet([], provenance="not-a-record")  # type: ignore[arg-type]

    def test_rejects_non_readings(self):
        record = ProvenanceRecord({"a": 1})
        with pytest.raises(ProvenanceError):
            TupleSet(["reading"], record)  # type: ignore[list-item]

    def test_len_iter_and_empty(self, sample_tuple_set):
        assert len(sample_tuple_set) == 3
        assert len(list(sample_tuple_set)) == 3
        assert not sample_tuple_set.is_empty()
        assert TupleSet([], ProvenanceRecord({"a": 1})).is_empty()

    def test_time_span(self, sample_tuple_set):
        start, end = sample_tuple_set.time_span()
        assert start.seconds == 0.0
        assert end.seconds == 20.0

    def test_time_span_empty(self):
        assert TupleSet([], ProvenanceRecord({"a": 1})).time_span() is None

    def test_sensors_sorted_unique(self):
        record = ProvenanceRecord({"a": 1})
        ts = TupleSet([_reading(0, "b"), _reading(1, "a"), _reading(2, "a")], record)
        assert ts.sensors() == ["a", "b"]

    def test_centroid(self):
        record = ProvenanceRecord({"a": 1})
        readings = [
            SensorReading("s1", Timestamp(0), {"v": 1}, GeoPoint(0.0, 0.0)),
            SensorReading("s2", Timestamp(1), {"v": 1}, GeoPoint(2.0, 2.0)),
        ]
        centroid = TupleSet(readings, record).centroid()
        assert centroid == GeoPoint(1.0, 1.0)

    def test_centroid_none_without_locations(self):
        record = ProvenanceRecord({"a": 1})
        ts = TupleSet([SensorReading("s", Timestamp(0), {"v": 1})], record)
        assert ts.centroid() is None

    def test_derive_links_lineage(self, sample_tuple_set):
        derived = sample_tuple_set.derive(
            readings=sample_tuple_set.readings[:1],
            attributes={"stage": "filtered", "domain": "traffic"},
            agent=Agent("program", "filter", "1.0"),
        )
        assert sample_tuple_set.pname in derived.provenance.ancestors
        assert len(derived) == 1

    def test_summary_fields(self, sample_tuple_set):
        summary = sample_tuple_set.summary()
        assert summary["readings"] == 3
        assert summary["raw"] is True
        assert summary["pname"] == sample_tuple_set.pname.short


class TestWindower:
    def _windower(self, window=300.0):
        return TupleSetWindower(
            window_seconds=window,
            base_attributes={"network": "test-net", "domain": "traffic"},
            agent=Agent("sensor-network", "test-net", "1.0"),
        )

    def test_rejects_non_positive_window(self):
        with pytest.raises(ProvenanceError):
            self._windower(window=0.0)

    def test_window_start_alignment(self):
        windower = self._windower(300.0)
        assert windower.window_start(Timestamp(723.0)).seconds == 600.0

    def test_partitions_by_window(self):
        windower = self._windower(300.0)
        readings = [_reading(t) for t in (0.0, 100.0, 299.0, 300.0, 550.0, 901.0)]
        sets = windower.window(readings)
        assert [len(ts) for ts in sets] == [3, 2, 1]

    def test_empty_windows_are_skipped(self):
        windower = self._windower(300.0)
        sets = windower.window([_reading(0.0), _reading(900.0)])
        assert len(sets) == 2

    def test_windows_are_chronological(self):
        windower = self._windower(60.0)
        readings = [_reading(t) for t in (500.0, 10.0, 250.0)]
        sets = windower.window(readings)
        starts = [ts.provenance.get("window_start").seconds for ts in sets]
        assert starts == sorted(starts)

    def test_window_attributes_present(self):
        windower = self._windower(300.0)
        ts = windower.window([_reading(10.0), _reading(20.0)])[0]
        record = ts.provenance
        assert record.get("network") == "test-net"
        assert record.get("window_start").seconds == 0.0
        assert record.get("window_end").seconds == 300.0
        assert record.get("reading_count") == 2

    def test_attribute_fn_extends_provenance(self):
        windower = TupleSetWindower(
            window_seconds=300.0,
            base_attributes={"network": "n", "domain": "d"},
            attribute_fn=lambda start, readings: {"max_speed": max(r.value("speed") for r in readings)},
        )
        ts = windower.window([_reading(0.0, speed=10.0), _reading(5.0, speed=99.0)])[0]
        assert ts.provenance.get("max_speed") == 99.0

    def test_distinct_windows_have_distinct_pnames(self):
        windower = self._windower(300.0)
        sets = windower.window([_reading(0.0), _reading(400.0), _reading(800.0)])
        pnames = {ts.pname for ts in sets}
        assert len(pnames) == 3
