"""Tests for the concurrent-client workload runner and its reports."""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.core import GeoPoint, ProvenanceRecord, Timestamp, TupleSet
from repro.distributed import CentralizedWarehouse, DistributedHashTable
from repro.errors import ConfigurationError
from repro.eval.harness import run_simulation_matrix
from repro.eval.scenario import standard_topology
from repro.net import Site, Topology
from repro.sim import Schedule, SimConfig, WorkloadRunner, simulate_publish_workload


def _tuple_sets(count: int, city: str = "london"):
    sets = []
    for index in range(count):
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "city": city,
                "sequence": index,
                "window_start": Timestamp(60.0 * index),
                "window_end": Timestamp(60.0 * index + 59.0),
            }
        )
        sets.append(TupleSet([], record))
    return sets


class TestDegenerateRuns:
    def test_single_client_latencies_equal_composed_latencies(self):
        """The runner's degenerate mode reproduces the arithmetic numbers."""
        sets = _tuple_sets(6)
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        twin = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        expected = [twin.publish(ts, "london-site").latency_ms for ts in sets]
        report = simulate_publish_workload(
            model, sets, clients=1, sites=["london-site"], config=SimConfig()
        )
        assert [r.kind for r in report.records] == ["publish"] * len(sets)
        assert all(r.ok for r in report.records)
        got = [r.latency_ms for r in report.records]
        assert got == pytest.approx(expected, rel=1e-9)
        # Closed loop: each op starts exactly when the previous one ends.
        assert report.virtual_ms == pytest.approx(sum(expected), rel=1e-9)

    def test_rejects_local_stores(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner(object(), lambda c, i: None)


class TestConcurrency:
    def test_shared_warehouse_queues_under_concurrent_publishers(self):
        """More clients -> queueing at the warehouse -> higher tail latency."""
        config = SimConfig(service_ms_per_message=5.0)

        def run(clients: int):
            model = CentralizedWarehouse(
                standard_topology(), warehouse_site="warehouse", indexing_ms_per_update=5.0
            )
            return simulate_publish_workload(
                model, _tuple_sets(32), clients=clients, config=config
            )

        solo = run(1)
        crowd = run(8)
        assert crowd.summary()["p99"] > solo.summary()["p99"]
        warehouse_crowd = crowd.sites["warehouse"]
        assert warehouse_crowd["mean_wait_ms"] > solo.sites["warehouse"]["mean_wait_ms"]
        assert warehouse_crowd["utilization"] > solo.sites["warehouse"]["utilization"]

    def test_the_ring_spreads_the_load_one_warehouse_queues_on(self):
        """64 publishers on a metro deployment, in virtual time: the shared
        warehouse's p99 degrades >= 5x against a lone client, the DHT's < 2x
        -- the separation composing per-operation latencies cannot express."""
        config = SimConfig(service_ms_per_message=0.2)
        sets = _tuple_sets(128)

        def metro() -> Topology:
            # Sites within ~300 km: service and indexing time are comparable
            # to the wire, which is where one shared server becomes the limit.
            topology = Topology()
            for index in range(32):
                point = GeoPoint(44.0 + 2.0 * (index * 0.381966011 % 1.0), -1.0 + 2.0 * (index * 0.618033988 % 1.0))
                topology.add_site(Site(f"metro-{index:02d}", point, kind="storage"))
            topology.add_site(Site("warehouse", GeoPoint(45.0, 0.0), kind="warehouse"))
            return topology

        def degradation(build):
            reports = [
                simulate_publish_workload(build(), sets, clients=clients, config=config)
                for clients in (1, 64)
            ]
            assert all(report.failed() == 0 for report in reports)
            solo, crowd = reports
            busiest = max(facts["utilization"] for facts in crowd.sites.values())
            return crowd.summary()["p99"] / solo.summary()["p99"], busiest

        central_ratio, central_busiest = degradation(
            lambda: CentralizedWarehouse(metro(), warehouse_site="warehouse", indexing_ms_per_update=2.0)
        )
        dht_ratio, dht_busiest = degradation(lambda: DistributedHashTable(metro()))
        assert central_ratio >= 5.0
        assert dht_ratio < 2.0
        assert central_busiest > dht_busiest

    def test_identical_seeds_reproduce_reports_byte_for_byte(self):
        config = SimConfig(seed=11, jitter=0.2, service_ms_per_message=1.0, journal=True)

        def run():
            model = DistributedHashTable(standard_topology())
            return simulate_publish_workload(model, _tuple_sets(12), clients=4, config=config)

        first, second = run(), run()
        assert first.journal_digest == second.journal_digest
        assert first.snapshot() == second.snapshot()


class TestSchedules:
    def test_mid_run_partition_fails_ops_and_heal_restores(self):
        schedule = Schedule.parse(
            [{"at_ms": 0.5, "action": "churn", "site": "warehouse", "duration_ms": 200.0}]
        )
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        report = simulate_publish_workload(
            model, _tuple_sets(30), clients=1, sites=["london-site"], schedule=schedule
        )
        assert len(report.schedule_applied) == 2
        assert report.failed() > 0, "no publish hit the partition window"
        ok_records = [record for record in report.records if record.ok]
        assert ok_records, "heal never restored publishing"
        # Ops landing inside the partition window fail (in flight or at
        # capture); everything issued after the heal succeeds again.
        assert all(record.start_ms > 200.0 for record in ok_records)
        assert not model.network.is_partitioned("warehouse")

    def test_far_future_schedule_events_do_not_skew_the_report(self):
        """A heal queued long after the workload must not stretch virtual time."""
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        plain = simulate_publish_workload(model, _tuple_sets(10), clients=2)

        late_heal = Schedule.parse([{"at_ms": 500_000.0, "action": "heal", "site": "warehouse"}])
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        scheduled = simulate_publish_workload(
            model, _tuple_sets(10), clients=2, schedule=late_heal
        )
        assert scheduled.virtual_ms == pytest.approx(plain.virtual_ms)
        assert scheduled.sites["warehouse"]["utilization"] == pytest.approx(
            plain.sites["warehouse"]["utilization"]
        )


class TestStatsSurface:
    def test_model_client_stats_carry_the_sim_block(self):
        client = connect("centralized://")
        assert client.stats()["sim"] == {"enabled": False, "reason": "no simulation has run"}
        report = client.simulate(_tuple_sets(8), clients=2)
        stats = client.stats()
        assert stats["sim"]["enabled"] is True
        assert stats["sim"] == report.snapshot()
        assert stats["sim"]["latency_ms"]["count"] == 8

    def test_local_client_stats_say_sim_is_unavailable(self):
        client = connect("memory://")
        assert client.stats()["sim"]["enabled"] is False

    def test_run_simulation_matrix_rows(self):
        rows = run_simulation_matrix(
            ["centralized://", "memory://"], _tuple_sets(6), clients=2
        )
        assert rows[0]["target"] == "centralized://"
        assert rows[0]["ops"] == 6
        assert set(rows[0]) >= {"p50_ms", "p95_ms", "p99_ms", "busiest_site"}
        assert rows[1]["simulation"] == "unsupported (local store)"
