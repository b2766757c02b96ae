"""Benchmark: discrete-event kernel throughput + queueing the old layer couldn't see.

Two claims gate here:

1. **Kernel throughput** -- the event loop (heap scheduling, hop
   delivery, FIFO server accounting) sustains >= 100,000 events/second
   of wall-clock time, so simulating millions of messages is practical.

2. **Concurrency separation** (fully deterministic, virtual-time): under
   64 concurrent publishers the centralized warehouse saturates -- its
   p99 publish latency degrades >= 5x versus a single client -- while
   the DHT, which spreads the same load across the ring, degrades < 2x.
   The old message-counting simulator composed per-operation latencies
   in isolation and was structurally incapable of expressing this.

Run with:  python benchmarks/bench_sim.py          (64 clients x 16 ops each)
      or:  python benchmarks/bench_sim.py --quick  (CI smoke, 64 x 4)
      or:  pytest benchmarks/bench_sim.py -s
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from results_io import write_bench_json

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import ProvenanceRecord
from repro.core.tupleset import TupleSet
from repro.distributed import CentralizedWarehouse, DistributedHashTable
from repro.net import Site, Topology
from repro.sim import Hop, OpTrace, SimConfig, SimKernel, simulate_publish_workload

CLIENTS = 64
FULL_OPS_PER_CLIENT, QUICK_OPS_PER_CLIENT = 16, 4
FULL_KERNEL_EVENTS, QUICK_KERNEL_EVENTS = 400_000, 100_000
REQUIRED_EVENTS_PER_SECOND = 100_000.0

#: per-message service and per-update indexing costs of the separation
#: scenario (a metro deployment, where wire latency doesn't dwarf them)
SERVICE_MS = 0.2
INDEXING_MS = 2.0


# ----------------------------------------------------------------------
# Phase 1: kernel throughput
# ----------------------------------------------------------------------
def kernel_events_per_second(total_events: int) -> float:
    """Drive hop-delivery traces through servers; return events/s of wall time."""
    sites = [f"s{i}" for i in range(16)]
    chain_hops = 4
    traces = []
    for index in range(max(1, total_events // chain_hops)):
        steps = [
            Hop(
                sites[(index + hop) % len(sites)],
                sites[(index + hop + 1) % len(sites)],
                128,
                "bench",
                1.0,
            )
            for hop in range(chain_hops)
        ]
        traces.append(OpTrace(kind="bench", origin=steps[0].source, steps=steps))

    kernel = SimKernel(SimConfig(service_ms_per_message=0.01))
    began = time.perf_counter()
    for offset, trace in enumerate(traces):
        kernel.schedule_trace(trace, offset * 0.1, lambda end, ok: None)
    kernel.run()
    elapsed = time.perf_counter() - began
    return kernel.events_processed / elapsed if elapsed > 0 else float("inf")


# ----------------------------------------------------------------------
# Phase 2: concurrency separation (deterministic)
# ----------------------------------------------------------------------
def _metro_topology(storage_sites: int = 32) -> Topology:
    """A metro-scale deployment: sites within ~300 km plus a central warehouse.

    Short wires matter: here per-message service and indexing time are
    comparable to propagation latency, which is exactly the regime where
    a single shared warehouse becomes the bottleneck.
    """
    topology = Topology()
    for index in range(storage_sites):
        latitude = 44.0 + 2.0 * ((index * 0.381966011) % 1.0)
        longitude = -1.0 + 2.0 * ((index * 0.618033988) % 1.0)
        topology.add_site(Site(f"metro-{index:02d}", GeoPoint(latitude, longitude), kind="storage"))
    topology.add_site(Site("warehouse", GeoPoint(45.0, 0.0), kind="warehouse"))
    return topology


def _tuple_sets(count: int):
    sets = []
    for index in range(count):
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "city": f"metro-{index % 32:02d}",
                "sequence": index,
                "window_start": Timestamp(60.0 * index),
                "window_end": Timestamp(60.0 * index + 59.0),
            }
        )
        sets.append(TupleSet([], record))
    return sets


def _p99_under(model_builder, tuple_sets, clients: int):
    model = model_builder()
    report = simulate_publish_workload(
        model,
        tuple_sets,
        clients=clients,
        config=SimConfig(service_ms_per_message=SERVICE_MS),
    )
    assert report.failed() == 0, "separation runs publish over a healthy network"
    busiest = max(report.sites.values(), key=lambda facts: facts["utilization"])
    return report.summary()["p99"], busiest["utilization"]


def separation(ops_per_client: int):
    topology = _metro_topology()
    tuple_sets = _tuple_sets(CLIENTS * ops_per_client)

    def centralized():
        return CentralizedWarehouse(
            _metro_topology(), warehouse_site="warehouse", indexing_ms_per_update=INDEXING_MS
        )

    def dht():
        return DistributedHashTable(_metro_topology())

    results = {}
    for name, builder in (("centralized", centralized), ("dht", dht)):
        solo_p99, solo_util = _p99_under(builder, tuple_sets, clients=1)
        crowd_p99, crowd_util = _p99_under(builder, tuple_sets, clients=CLIENTS)
        results[name] = {
            "solo_p99": solo_p99,
            "crowd_p99": crowd_p99,
            "ratio": crowd_p99 / solo_p99 if solo_p99 > 0 else float("inf"),
            "crowd_util": crowd_util,
        }
    del topology
    return results


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_benchmark(ops_per_client: int, kernel_events: int, assert_timing: bool) -> int:
    failures = 0

    rate = kernel_events_per_second(kernel_events)
    print(f"\n[sim kernel] ~{kernel_events:,} hop-delivery events")
    print(f"  throughput:           {rate:>12,.0f} events/s (gate: {REQUIRED_EVENTS_PER_SECOND:,.0f})")
    if assert_timing and rate < REQUIRED_EVENTS_PER_SECOND:
        print(f"  THROUGHPUT FAILURE: {rate:,.0f} < {REQUIRED_EVENTS_PER_SECOND:,.0f} events/s")
        failures += 1

    results = separation(ops_per_client)
    print(f"\n[concurrency separation] 1 vs {CLIENTS} publishers, {CLIENTS * ops_per_client} publishes")
    for name, facts in results.items():
        print(
            f"  {name:<12} p99 {facts['solo_p99']:9.2f} ms -> {facts['crowd_p99']:9.2f} ms "
            f"({facts['ratio']:5.2f}x), busiest site {facts['crowd_util'] * 100:5.1f}% busy"
        )
    central_ratio = results["centralized"]["ratio"]
    dht_ratio = results["dht"]["ratio"]
    if central_ratio < 5.0:
        print(f"  SATURATION FAILURE: centralized p99 degraded {central_ratio:.2f}x < 5x")
        failures += 1
    if dht_ratio >= 2.0:
        print(f"  SPREAD FAILURE: dht p99 degraded {dht_ratio:.2f}x >= 2x")
        failures += 1
    if results["centralized"]["crowd_util"] < results["dht"]["crowd_util"]:
        print("  UTILIZATION FAILURE: the warehouse should be the hottest server")
        failures += 1
    write_bench_json(
        "sim",
        {
            "kernel_events": kernel_events,
            "events_per_second": round(rate, 1),
            "separation": {
                name: {key: round(value, 4) for key, value in facts.items()}
                for name, facts in results.items()
            },
            "gates": {
                "required_events_per_second": REQUIRED_EVENTS_PER_SECOND,
                "failures": failures,
            },
        },
    )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_sim_kernel_quick():
    """CI smoke: throughput gate + deterministic concurrency separation."""
    assert_timing = os.environ.get("BENCH_ASSERT_TIMING", "1") != "0"
    assert run_benchmark(QUICK_OPS_PER_CLIENT, QUICK_KERNEL_EVENTS, assert_timing) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke size ({CLIENTS} clients x {QUICK_OPS_PER_CLIENT} ops)",
    )
    parser.add_argument("--ops", type=int, default=None, help="override ops per client")
    parser.add_argument("--events", type=int, default=None, help="override kernel event count")
    args = parser.parse_args(argv)
    ops = args.ops if args.ops is not None else (
        QUICK_OPS_PER_CLIENT if args.quick else FULL_OPS_PER_CLIENT
    )
    events = args.events if args.events is not None else (
        QUICK_KERNEL_EVENTS if args.quick else FULL_KERNEL_EVENTS
    )
    assert_timing = os.environ.get("BENCH_ASSERT_TIMING", "1") != "0"
    failures = run_benchmark(ops, events, assert_timing)
    if failures:
        print(f"\n{failures} failure(s)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
