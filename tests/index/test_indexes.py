"""Tests for the attribute, temporal and spatial indexes."""

from __future__ import annotations

import pytest

from repro.core import GeoPoint, ProvenanceRecord, Timestamp
from repro.errors import ConfigurationError
from repro.index import AttributeIndex, SpatialIndex, TemporalIndex


def _record(**attributes):
    base = {"domain": "traffic"}
    base.update(attributes)
    return ProvenanceRecord(base)


class TestAttributeIndex:
    def test_exact_lookup(self):
        index = AttributeIndex()
        record = _record(city="london")
        index.add(record.pname(), record)
        assert index.lookup("city", "london") == {record.pname().digest}
        assert index.lookup("city", "boston") == set()

    def test_lookup_is_type_strict(self):
        index = AttributeIndex()
        record = _record(count=5)
        index.add(record.pname(), record)
        assert index.lookup("count", 5) == {record.pname().digest}
        assert index.lookup("count", 5.0) == set()

    def test_restricted_attribute_set(self):
        index = AttributeIndex(indexed_attributes=["city"])
        record = _record(city="london", owner="tfl")
        index.add(record.pname(), record)
        assert index.covers("city")
        assert not index.covers("owner")
        assert index.lookup("owner", "tfl") == set()

    def test_lookup_any(self):
        index = AttributeIndex()
        records = [_record(city=c) for c in ("london", "boston", "seattle")]
        for record in records:
            index.add(record.pname(), record)
        hits = index.lookup_any("city", ["london", "seattle"])
        assert hits == {records[0].pname().digest, records[2].pname().digest}

    def test_range_lookup_numeric(self):
        index = AttributeIndex()
        records = [_record(count=i) for i in range(10)]
        for record in records:
            index.add(record.pname(), record)
        hits = index.lookup_range("count", low=3, high=5)
        assert hits == {records[i].pname().digest for i in (3, 4, 5)}

    def test_range_lookup_exclusive_bounds(self):
        index = AttributeIndex()
        records = [_record(count=i) for i in range(5)]
        for record in records:
            index.add(record.pname(), record)
        hits = index.lookup_range("count", low=1, high=3, include_low=False, include_high=False)
        assert hits == {records[2].pname().digest}

    def test_range_lookup_timestamps(self):
        index = AttributeIndex()
        records = [_record(window_start=Timestamp(60.0 * i)) for i in range(5)]
        for record in records:
            index.add(record.pname(), record)
        hits = index.lookup_range("window_start", low=Timestamp(60.0), high=Timestamp(180.0))
        assert len(hits) == 3

    def test_range_needs_bound(self):
        with pytest.raises(ConfigurationError):
            AttributeIndex().lookup_range("count")

    def test_range_skips_incompatible_values(self):
        index = AttributeIndex()
        numeric = _record(value=10)
        text = _record(value="ten")
        index.add(numeric.pname(), numeric)
        index.add(text.pname(), text)
        assert index.lookup_range("value", low=0, high=100) == {numeric.pname().digest}

    def test_distinct_values_sorted(self):
        index = AttributeIndex()
        for count in (5, 1, 3):
            record = _record(count=count)
            index.add(record.pname(), record)
        assert index.distinct_values("count") == [1, 3, 5]

    def test_cardinality(self):
        index = AttributeIndex()
        for city in ("london", "london", "boston"):
            record = _record(city=city, nonce=len(index.indexed_attributes()) + index.entry_count())
            index.add(record.pname(), record)
        assert index.cardinality("city") == 2
        assert index.cardinality("nowhere") == 0

    def test_add_value_and_remove(self):
        index = AttributeIndex()
        record = _record(city="london")
        index.add(record.pname(), record)
        index.add_value(record.pname(), "annotation:note", "upgraded")
        assert index.lookup("annotation:note", "upgraded") == {record.pname().digest}
        index.remove(record.pname(), record)
        assert index.lookup("city", "london") == set()

    def test_entry_count_tracks_postings(self):
        index = AttributeIndex()
        record = _record(city="london", owner="tfl")
        index.add(record.pname(), record)
        assert index.entry_count() == 3  # domain, city, owner


    def test_range_with_a_bound_that_is_no_attribute_value_is_empty(self):
        index = AttributeIndex()
        record = _record(count=1)
        index.add(record.pname(), record)
        # A raw list is not coerced by the predicate algebra; a scan finds
        # nothing comparable to it, and so must the index.
        assert index.lookup_range("count", low=[0]) == set()
        assert index.estimate_range("count", low=[0]) == 0

    def test_list_values_order_like_the_scan_orders_them(self):
        index = AttributeIndex()
        records = [_record(route=(stop, stop + 1)) for stop in range(5)]
        for record in records:
            index.add(record.pname(), record)
        hits = index.lookup_range("route", low=(1,), high=(3, 9))
        assert hits == {records[i].pname().digest for i in (1, 2, 3)}
        assert index.distinct_values("route")[0] == (0, 1)

    def test_range_after_write_does_not_rebuild_the_view(self, monkeypatch):
        """Reads landing between writes: the view is built once, then each
        new ``sequence`` costs one sort key -- not one per stored value per query."""
        from repro.api import Q, connect
        from repro.core import TupleSet
        from repro.core.attributes import _ordering_key as ordering_key
        from repro.index import attribute_index

        computed = []
        decode = AttributeIndex._decode_for_sort
        monkeypatch.setattr(
            AttributeIndex,
            "_decode_for_sort",
            staticmethod(lambda encoded: computed.append(encoded) or decode(encoded)),
        )
        monkeypatch.setattr(
            attribute_index,
            "_ordering_key",
            lambda value: computed.append(value) or ordering_key(value),
            raising=False,  # counted where the index calls it by this name
        )
        rounds = 200
        with connect("memory://") as client:
            for sequence in range(rounds):
                client.publish(TupleSet([], _record(sequence=sequence, sensor=f"s{sequence % 7}")))
                found = client.query(Q.attr("sequence").between(sequence - 3, sequence))
                assert found.total == min(sequence + 1, 4)
            distinct = sum(
                client.store.attribute_index.cardinality(name)
                for name in client.store.attribute_index.indexed_attributes()
            )
        # estimate + probe, two bounds each; the handful of rounds that re-plan
        # (the store quadrupled) estimate the probe they now always choose thrice
        bound_keys = 2 * 2 * rounds + 40
        assert len(computed) <= distinct + bound_keys


class TestTemporalIndex:
    def _populated(self):
        index = TemporalIndex()
        names = {}
        for i in range(5):
            record = _record(window=i)
            names[i] = record.pname().digest
            index.add(record.pname(), Timestamp(i * 100.0), Timestamp(i * 100.0 + 100.0))
        return index, names

    def test_rejects_inverted_interval(self):
        index = TemporalIndex()
        with pytest.raises(ConfigurationError):
            index.add(_record().pname(), Timestamp(10.0), Timestamp(0.0))

    def test_overlapping(self):
        index, names = self._populated()
        hits = index.overlapping(Timestamp(150.0), Timestamp(250.0))
        assert hits == {names[1], names[2]}

    def test_overlap_at_boundary(self):
        index, names = self._populated()
        hits = index.overlapping(Timestamp(100.0), Timestamp(100.0))
        assert names[0] in hits and names[1] in hits

    def test_rejects_inverted_query(self):
        index, _ = self._populated()
        with pytest.raises(ConfigurationError):
            index.overlapping(Timestamp(10.0), Timestamp(0.0))

    def test_len(self):
        index, _ = self._populated()
        assert len(index) == 5


class TestSpatialIndex:
    LONDON = GeoPoint(51.5074, -0.1278)
    BOSTON = GeoPoint(42.3601, -71.0589)
    CAMBRIDGE_UK = GeoPoint(52.2053, 0.1218)

    def _populated(self):
        index = SpatialIndex()
        names = {}
        for label, point in (("london", self.LONDON), ("boston", self.BOSTON), ("cambridge", self.CAMBRIDGE_UK)):
            record = _record(place=label)
            names[label] = record.pname().digest
            index.add(record.pname(), point)
        return index, names

    def test_rejects_non_positive_cell(self):
        with pytest.raises(ConfigurationError):
            SpatialIndex(cell_degrees=0.0)

    def test_within_radius(self):
        index, names = self._populated()
        hits = index.within_radius(self.LONDON, 150.0)
        assert hits == {names["london"], names["cambridge"]}

    def test_within_small_radius(self):
        index, names = self._populated()
        assert index.within_radius(self.LONDON, 1.0) == {names["london"]}

    def test_negative_radius_rejected(self):
        index, _ = self._populated()
        with pytest.raises(ConfigurationError):
            index.within_radius(self.LONDON, -1.0)

    def test_radius_at_high_latitude(self):
        index = SpatialIndex()
        centre = GeoPoint(69.6, 18.9)  # Tromso
        east = GeoPoint(69.6, 19.9)    # ~39 km east at that latitude
        record = _record(place="east")
        index.add(record.pname(), east)
        assert index.within_radius(centre, 60.0) == {record.pname().digest}

    def test_re_adding_moves_point(self):
        index = SpatialIndex()
        record = _record(place="mobile")
        index.add(record.pname(), self.LONDON)
        index.add(record.pname(), self.BOSTON)
        assert index.within_radius(self.LONDON, 50.0) == set()
        assert index.within_radius(self.BOSTON, 50.0) == {record.pname().digest}
        assert len(index) == 1

    def test_a_place_is_measured_once_however_many_sets_it_holds(self, monkeypatch):
        """Sensors stay put: a radius query costs one distance per distinct place."""
        index = SpatialIndex()
        names = []
        for serial in range(30):
            record = _record(place="shared", serial=serial)
            names.append(record.pname().digest)
            index.add(record.pname(), (self.LONDON, self.CAMBRIDGE_UK, self.BOSTON)[serial % 3])
        measured = []
        distance_km = GeoPoint.distance_km
        monkeypatch.setattr(
            GeoPoint, "distance_km", lambda self, other: measured.append(self) or distance_km(self, other)
        )
        hits = index.within_radius(self.LONDON, 150.0)
        assert hits == {name for serial, name in enumerate(names) if serial % 3 != 2}
        assert sorted(measured) == sorted([self.LONDON, self.CAMBRIDGE_UK])
        assert index.estimate_within(self.LONDON, 150.0) == 20

    def test_moving_one_of_two_leaves_the_other_and_no_stale_place(self, monkeypatch):
        index = SpatialIndex()
        stays, moves = _record(place="stays"), _record(place="moves")
        index.add(stays.pname(), self.LONDON)
        index.add(moves.pname(), self.LONDON)
        index.add(moves.pname(), self.BOSTON)
        assert index.within_radius(self.LONDON, 50.0) == {stays.pname().digest}
        assert index.estimate_within(self.LONDON, 50.0) == 1
        index.add(stays.pname(), self.BOSTON)
        measured = []
        distance_km = GeoPoint.distance_km
        monkeypatch.setattr(
            GeoPoint, "distance_km", lambda self, other: measured.append(self) or distance_km(self, other)
        )
        assert index.within_radius(self.LONDON, 50.0) == set()
        assert measured == []  # a place nobody is at any more is gone, not measured
        assert index.estimate_within(self.LONDON, 50.0) == 0
        assert index.within_radius(self.BOSTON, 50.0) == {stays.pname().digest, moves.pname().digest}

    def test_restore_answers_like_the_index_it_snapshot(self):
        index, names = self._populated()
        twin = _record(place="twin")
        index.add(twin.pname(), self.LONDON)
        order = sorted(names.values()) + [twin.pname().digest]
        restored = SpatialIndex()
        restored.restore(index.snapshot({digest: at for at, digest in enumerate(order)}), order)
        for centre, radius in ((self.LONDON, 150.0), (self.LONDON, 1.0), (self.BOSTON, 10.0)):
            assert restored.within_radius(centre, radius) == index.within_radius(centre, radius)
            assert restored.estimate_within(centre, radius) == index.estimate_within(centre, radius)
        assert len(restored) == 4
