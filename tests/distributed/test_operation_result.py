"""Tests for OperationResult cost accounting: add_site, merge, publish_batch."""

from __future__ import annotations

import pytest

from repro.core.provenance import PName
from repro.distributed import CentralizedWarehouse, DistributedDatabase, OperationResult
from repro.eval.scenario import origin_site_for, standard_topology
from repro.sensors.workloads import TrafficWorkload


def _pname(label: str) -> PName:
    return PName(label * 64)


class TestAddSiteAndMerge:
    def test_add_site_deduplicates_preserving_order(self):
        result = OperationResult()
        for site in ("b-site", "a-site", "b-site", "c-site", "a-site"):
            result.add_site(site)
        assert result.sites_contacted == ["b-site", "a-site", "c-site"]

    def test_merge_sums_costs_and_concatenates_answers(self):
        first = OperationResult(
            pnames=[_pname("a")], latency_ms=2.0, messages=3, bytes=100,
            sites_contacted=["x"], notes=["one"],
        )
        second = OperationResult(
            pnames=[_pname("b")], latency_ms=1.5, messages=1, bytes=50,
            sites_contacted=["x", "y"], notes=["two"],
        )
        merged = first.merge(second)
        assert merged is first
        assert merged.pnames == [_pname("a"), _pname("b")]
        assert merged.latency_ms == 3.5
        assert merged.messages == 4
        assert merged.bytes == 150
        assert merged.sites_contacted == ["x", "y"]
        assert merged.notes == ["one", "two"]


class TestPublishBatch:
    def _sets(self):
        workload = TrafficWorkload(seed=9, cities=("london",), stations_per_city=2)
        raw, derived = workload.all_sets(hours=0.5)
        return raw + derived

    def test_default_batch_equals_looped_publishes(self):
        sets = self._sets()
        topology = standard_topology()
        looped_model = DistributedDatabase(topology)
        combined = OperationResult()
        for tuple_set in sets:
            combined.merge(looped_model.publish(tuple_set, "london-site"))
        batched_model = DistributedDatabase(topology)
        batch = batched_model.publish_batch(sets, "london-site")
        assert batch.pnames == combined.pnames
        assert batch.messages == combined.messages
        # Same hops either way; one trace sums them in one pass, the loop
        # sums per-publish subtotals -- equal up to float summation order.
        assert batch.latency_ms == pytest.approx(combined.latency_ms, rel=1e-9)

    def test_nested_operation_reports_zero_the_outer_one_the_whole_trace(self):
        """The default batch loops publish(); only the outermost op has a trace."""
        sets = self._sets()
        inner = []

        class Spy(DistributedDatabase):
            def publish(self, tuple_set, origin_site):
                result = super().publish(tuple_set, origin_site)
                inner.append(result)
                return result

        model = Spy(standard_topology())
        batch = model.publish_batch(sets, "london-site")
        assert len(inner) == len(sets)
        for nested in inner:
            assert nested.trace is None
            assert (nested.latency_ms, nested.messages, nested.bytes) == (0.0, 0, 0)
        stats = model.network.stats
        assert (batch.messages, batch.bytes) == (stats.messages, stats.bytes)
        assert batch.messages == len(batch.trace.hops()) > 0
        assert batch.latency_ms > 0.0

    def test_centralized_batch_single_round_trip(self):
        sets = self._sets()
        topology = standard_topology()
        model = CentralizedWarehouse(topology, warehouse_site="warehouse")
        batch = model.publish_batch(sets, "london-site")
        # One request + one ack for the whole batch.
        assert batch.messages == 2
        assert batch.pname_set() == {ts.pname for ts in sets}
        assert model.published == len(sets)
        # Everything is queryable and locatable afterwards.
        located = model.locate(sets[0].pname, "london-site")
        assert located.sites_contacted[-1] == "london-site"

    def test_centralized_batch_cheaper_than_looped(self):
        sets = self._sets()
        topology = standard_topology()
        looped_model = CentralizedWarehouse(topology, warehouse_site="warehouse")
        looped = OperationResult()
        for tuple_set in sets:
            looped.merge(looped_model.publish(tuple_set, "london-site"))
        batched_model = CentralizedWarehouse(topology, warehouse_site="warehouse")
        batch = batched_model.publish_batch(sets, "london-site")
        assert batch.latency_ms < looped.latency_ms
        assert batch.messages < looped.messages

    def test_empty_batch_is_free(self):
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        batch = model.publish_batch([], "london-site")
        assert batch.pnames == [] and batch.messages == 0 and batch.latency_ms == 0.0
