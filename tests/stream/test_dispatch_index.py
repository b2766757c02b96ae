"""Tests for the attribute-keyed dispatch index (anchor compilation + pruning)."""

from __future__ import annotations

import random

import pytest

from repro.api import Q
from repro.core import GeoPoint, ProvenanceRecord, Timestamp
from repro.query.normalize import normalize
from repro.stream.dispatch import DispatchIndex, anchor_groups_for
from repro.stream.engine import StreamEngine


def _record(**attributes) -> ProvenanceRecord:
    return ProvenanceRecord({"domain": "traffic", **attributes})


class TestAnchorCompilation:
    def test_equality_anchors_on_the_exact_value(self):
        groups = anchor_groups_for(normalize(Q.attr("city") == "london"))
        assert len(groups) == 1
        assert groups[0][0][:2] == ("eq", "city")

    def test_membership_is_one_group_of_equalities(self):
        groups = anchor_groups_for(normalize(Q.attr("city").one_of("london", "boston")))
        assert len(groups) == 1
        assert len(groups[0]) == 2
        assert all(anchor[0] == "eq" for anchor in groups[0])

    def test_range_anchors_on_attribute_presence(self):
        groups = anchor_groups_for(normalize(Q.attr("sequence") >= 5))
        assert groups == [[("attr", "sequence")]]

    def test_conjunction_demands_every_anchorable_conjunct(self):
        predicate = normalize((Q.attr("domain") == "traffic") & (Q.attr("city") == "london"))
        groups = anchor_groups_for(predicate)
        assert len(groups) == 2  # both facts must be exhibited

    def test_disjunction_unions_branch_anchors(self):
        predicate = normalize((Q.attr("city") == "london") | (Q.attr("city") == "boston"))
        groups = anchor_groups_for(predicate)
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_unanchorable_disjunct_poisons_the_predicate(self):
        predicate = normalize((Q.attr("city") == "london") | Q.raw())
        assert anchor_groups_for(predicate) is None

    def test_negated_leaves_are_unanchorable(self):
        # ~(city == london) matches records that lack `city` entirely, so
        # no attribute fact of the record can be demanded.
        assert anchor_groups_for(normalize(~(Q.attr("city") == "london"))) is None

    def test_conjunction_with_unanchorable_part_keeps_other_anchors(self):
        predicate = normalize((Q.attr("city") == "london") & Q.raw())
        groups = anchor_groups_for(predicate)
        assert len(groups) == 1


class TestCandidatePruning:
    def test_equality_buckets_prune_other_values(self):
        index = DispatchIndex()
        index.add("s1", normalize(Q.attr("city") == "london"))
        index.add("s2", normalize(Q.attr("city") == "boston"))
        assert index.candidates(_record(city="london")) == {"s1"}
        assert index.candidates(_record(city="paris")) == set()

    def test_conjunction_prunes_multiplicatively(self):
        index = DispatchIndex()
        index.add("s1", normalize((Q.attr("domain") == "traffic") & (Q.attr("city") == "london")))
        # domain matches but city does not: NOT a candidate (this is what
        # single-anchor dispatch would get wrong).
        assert index.candidates(_record(city="boston")) == set()
        assert index.candidates(_record(city="london")) == {"s1"}

    def test_work_per_record_follows_matching_buckets_not_subscription_count(self):
        """300 city monitors over 100 cities plus three unanchorable dashboards:
        a record is evaluated against the handful that can match it, >= 10x
        fewer predicate evaluations than trying every subscription (a count)."""
        engine = StreamEngine()
        delivered = []
        for index in range(300):
            engine.subscribe(Q.attr("city") == f"city-{index % 100:03d}", callback=delivered.append)
        for low in (0, 20, 40):
            engine.subscribe(Q.attr("sequence").between(low, low + 5), callback=delivered.append)
        for index in range(50):
            record = _record(city=f"city-{(7 * index) % 100:03d}", sequence=index)
            engine.on_ingest(record.pname(), record)
        assert engine.naive_checks == 303 * 50
        assert engine.candidates_checked == (3 + 3) * 50
        assert len(delivered) == 3 * 50 + 18

    def test_scan_bucket_is_always_a_candidate(self):
        index = DispatchIndex()
        index.add("s1", normalize(Q.raw()))
        assert index.candidates(_record(city="anything")) == {"s1"}

    def test_remove_clears_every_posting(self):
        index = DispatchIndex()
        predicate = normalize((Q.attr("city") == "london") | (Q.attr("city") == "boston"))
        index.add("s1", predicate)
        index.remove("s1")
        assert index.candidates(_record(city="london")) == set()
        assert len(index) == 0

    def test_remove_scan_subscription(self):
        index = DispatchIndex()
        index.add("s1", normalize(Q.raw()))
        index.remove("s1")
        assert index.candidates(_record()) == set()


class TestIndexedNaiveParity:
    """The index only prunes: indexed and naive dispatch deliver identically."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_parity(self, seed):
        rng = random.Random(seed)
        cities = [f"city-{i}" for i in range(6)]
        domains = ["traffic", "weather", "medical"]

        def random_predicate():
            roll = rng.random()
            if roll < 0.3:
                return Q.attr("city") == rng.choice(cities)
            if roll < 0.5:
                return (Q.attr("domain") == rng.choice(domains)) & (
                    Q.attr("city") == rng.choice(cities)
                )
            if roll < 0.65:
                low = rng.randrange(0, 40)
                return Q.attr("sequence").between(low, low + 10)
            if roll < 0.75:
                return (Q.attr("city") == rng.choice(cities)) | (
                    Q.attr("sequence") >= rng.randrange(0, 40)
                )
            if roll < 0.85:
                return ~(Q.attr("city") == rng.choice(cities))
            if roll < 0.95:
                return Q.attr("city").one_of(*rng.sample(cities, 2))
            return Q.near(GeoPoint(45.0, 0.0), rng.uniform(100.0, 2000.0))

        def build(engine, collector):
            for _ in range(40):
                engine.subscribe(random_predicate(), callback=collector)

        naive_events, indexed_events = [], []
        naive = StreamEngine(use_index=False)
        indexed = StreamEngine(use_index=True)
        build(naive, naive_events.append)
        # Re-seed so both engines hold identical subscription populations.
        rng = random.Random(seed)
        build(indexed, indexed_events.append)

        rng2 = random.Random(seed + 100)
        for i in range(120):
            record = ProvenanceRecord(
                {
                    "domain": rng2.choice(domains),
                    "city": rng2.choice(cities),
                    "sequence": rng2.randrange(0, 50),
                    "window_start": Timestamp(60.0 * i),
                    "location": GeoPoint(rng2.uniform(30, 60), rng2.uniform(-10, 10)),
                }
            )
            pname = record.pname()
            naive.on_ingest(pname, record)
            indexed.on_ingest(pname, record)

        def keys(events):
            return sorted((e.subscription_id, e.pname.digest) for e in events)

        assert keys(naive_events) == keys(indexed_events)
        assert naive_events  # the comparison must not be vacuous
        # And the index must have done real pruning work.
        assert indexed.candidates_checked < indexed.naive_checks
