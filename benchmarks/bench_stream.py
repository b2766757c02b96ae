"""Benchmark: dispatch-index subscription matching vs. naive evaluation.

The acceptance claim of the ``repro.stream`` subsystem: with ~1,000
standing queries registered, matching one ingested record through the
attribute-keyed dispatch index costs O(candidate subscriptions) -- not
O(all subscriptions) -- making ingest-path dispatch >= 10x faster than
evaluating every predicate per record, while delivering *identical*
events (the index only prunes; the full predicate always runs on the
candidates).

Run with:  python benchmarks/bench_stream.py          (1,000 subs, 20,000 records)
      or:  python benchmarks/bench_stream.py --quick  (CI smoke, 400 subs, 2,000 records)
      or:  pytest benchmarks/bench_stream.py -s

Quick mode gates CI on the deterministic facts -- event parity between
the two dispatch modes and the candidate-pruning ratio (work actually
avoided) -- and keeps the wall-clock speedup advisory, because shared
runners make timing thresholds flaky; the full mode asserts the 10x
wall-clock claim too.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from results_io import write_bench_json

from repro.api.dsl import Q
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import ProvenanceRecord
from repro.stream.engine import StreamEngine

FULL_SUBS, FULL_RECORDS = 1_000, 20_000
QUICK_SUBS, QUICK_RECORDS = 400, 2_000


_CITIES = [f"city-{i:03d}" for i in range(100)]
_DOMAINS = ["traffic", "weather", "medical", "volcano", "structural"]


def _build_subscriptions(engine: StreamEngine, count: int, collector) -> None:
    """Standing queries shaped like the paper's consumers.

    96% anchor on an attribute equality (a specific city's congestion
    monitor, one patient's alert, one domain's dashboard); the rest are
    range/geo predicates that only anchor on attribute presence and so
    are evaluated for every record carrying the attribute.  Every
    subscription shares one collector callback so parity checks see
    every delivered event.
    """
    rng = random.Random(20260730)
    for index in range(count):
        roll = rng.random()
        if roll < 0.60:
            predicate = Q.attr("city") == rng.choice(_CITIES)
        elif roll < 0.96:
            predicate = (Q.attr("domain") == rng.choice(_DOMAINS)) & (
                Q.attr("city") == rng.choice(_CITIES)
            )
        elif roll < 0.99:
            threshold = rng.randrange(0, 10_000)
            predicate = Q.attr("sequence").between(threshold, threshold + 50)
        else:
            predicate = Q.near(GeoPoint(45.0, 0.0), rng.uniform(50.0, 200.0))
        engine.subscribe(predicate, callback=collector, name=f"standing-{index}")


def _build_records(count: int):
    rng = random.Random(7)
    records = []
    for index in range(count):
        records.append(
            ProvenanceRecord(
                {
                    "domain": _DOMAINS[index % len(_DOMAINS)],
                    "city": rng.choice(_CITIES),
                    "sequence": index,
                    "window_start": Timestamp(60.0 * index),
                    "window_end": Timestamp(60.0 * index + 59.0),
                    "location": GeoPoint(rng.uniform(30.0, 60.0), rng.uniform(-20.0, 20.0)),
                }
            )
        )
    return [(record.pname(), record) for record in records]


def _drive(engine: StreamEngine, pairs) -> float:
    start = time.perf_counter()
    for pname, record in pairs:
        engine.on_ingest(pname, record)
    return time.perf_counter() - start


def run_benchmark(subs: int, records: int, assert_timing: bool, required_speedup: float) -> int:
    pairs = _build_records(records)
    failures = 0

    naive_events = []
    naive = StreamEngine(use_index=False)
    _build_subscriptions(naive, subs, naive_events.append)
    naive_s = _drive(naive, pairs)

    indexed_events = []
    indexed = StreamEngine(use_index=True)
    _build_subscriptions(indexed, subs, indexed_events.append)
    indexed_s = _drive(indexed, pairs)

    speedup = naive_s / indexed_s if indexed_s > 0 else float("inf")
    checked = indexed.candidates_checked
    pruning = indexed.naive_checks / checked if checked else float("inf")

    print(f"\n[stream dispatch] {subs} standing queries x {records} ingested records")
    print(f"  naive evaluations:    {naive.candidates_checked:>12,}  in {naive_s * 1e3:9.1f} ms")
    print(f"  indexed evaluations:  {checked:>12,}  in {indexed_s * 1e3:9.1f} ms")
    print(f"  candidate pruning:    {pruning:11.1f}x fewer predicate evaluations")
    print(f"  wall-clock speedup:   {speedup:11.1f}x")

    # Parity: both modes must deliver the same events to the same subscriptions.
    naive_keys = sorted((e.subscription_id, e.pname.digest) for e in naive_events)
    indexed_keys = sorted((e.subscription_id, e.pname.digest) for e in indexed_events)
    if naive_keys != indexed_keys:
        print(
            f"  PARITY FAILURE: naive delivered {len(naive_keys)} event(s), "
            f"indexed delivered {len(indexed_keys)}; the sets differ"
        )
        failures += 1
    if not naive_events:
        print("  SETUP FAILURE: the workload produced no matches at all")
        failures += 1

    # The pruning ratio is deterministic (no clocks involved): the index
    # must discard the overwhelming majority of per-record evaluations.
    if pruning < required_speedup:
        print(
            f"  PRUNING FAILURE: {pruning:.1f}x < required {required_speedup}x "
            "fewer evaluations"
        )
        failures += 1
    if assert_timing and speedup < required_speedup:
        print(f"  TIMING FAILURE: {speedup:.1f}x < required {required_speedup}x")
        failures += 1
    write_bench_json(
        "stream",
        {
            "subscriptions": subs,
            "records": records,
            "naive_ms": round(naive_s * 1e3, 3),
            "indexed_ms": round(indexed_s * 1e3, 3),
            "wall_clock_speedup": round(speedup, 2),
            "pruning_ratio": round(pruning, 2),
            "events_delivered": len(indexed_events),
            "gates": {"required_speedup": required_speedup, "failures": failures},
        },
    )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_stream_dispatch_quick():
    """CI smoke: event parity + pruning ratio gate; timing advisory."""
    assert_timing = os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    assert run_benchmark(QUICK_SUBS, QUICK_RECORDS, assert_timing, required_speedup=10.0) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke size ({QUICK_SUBS} subscriptions, {QUICK_RECORDS} records)",
    )
    parser.add_argument("--subs", type=int, default=None, help="override the subscription count")
    parser.add_argument("--records", type=int, default=None, help="override the record count")
    args = parser.parse_args(argv)
    subs = args.subs if args.subs is not None else (QUICK_SUBS if args.quick else FULL_SUBS)
    records = (
        args.records if args.records is not None else (QUICK_RECORDS if args.quick else FULL_RECORDS)
    )
    # Parity and pruning always gate; wall-clock gates outside --quick
    # (or when BENCH_ASSERT_TIMING=1 forces it).
    assert_timing = not args.quick or os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    failures = run_benchmark(subs, records, assert_timing, required_speedup=10.0)
    if failures:
        print(f"\n{failures} failure(s)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
