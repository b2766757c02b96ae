"""Benchmark: planner-chosen index paths vs. forced full scans.

The acceptance claim of the ``repro.query`` subsystem: on a 10^5 tuple
set store, planner-chosen time-window, geo-radius and attribute-range
queries are >= 10x faster than the forced full-scan baseline, and every
query class returns *identical* results either way (access paths only
generate candidates; the full predicate always runs on them).

Run with:  python benchmarks/bench_query_planner.py          (10^5 records)
      or:  python benchmarks/bench_query_planner.py --quick  (CI smoke, 5x10^3)
      or:  pytest benchmarks/bench_query_planner.py -s

The quick mode gates CI on plan *shape* (the planner must pick the index
path and return scan-parity results) and keeps the wall-clock speedup
advisory, because shared runners make timing thresholds flaky; the full
mode asserts the 10x claim.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from results_io import write_bench_json

from repro.api.client import LocalClient
from repro.api.dsl import Q
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.pass_store import PassStore
from repro.core.provenance import ProvenanceRecord
from repro.core.tupleset import TupleSet

FULL_SIZE = 100_000
QUICK_SIZE = 5_000
REPEATS = 3  # best-of-N absorbs one-off pauses on shared machines

#: roughly 1% selectivity per query class, at any store size
WINDOW_SECONDS = 60.0


def _build_store(count: int) -> PassStore:
    """A store of ``count`` synthetic tuple sets spread over time and space.

    Windows tile the timeline (one per minute); locations spread over a
    ~30x40 degree area so the spatial grid actually discriminates.
    """
    rng = random.Random(20260730)
    store = PassStore()
    sets = []
    for index in range(count):
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "city": f"city-{index % 100:03d}",
                "sequence": index,
                "window_start": Timestamp(WINDOW_SECONDS * index),
                "window_end": Timestamp(WINDOW_SECONDS * index + WINDOW_SECONDS - 1.0),
                "location": GeoPoint(
                    rng.uniform(30.0, 60.0), rng.uniform(-20.0, 20.0)
                ),
            }
        )
        sets.append(TupleSet([], record))
        if len(sets) >= 2000:
            store.ingest_many(sets)
            sets = []
    if sets:
        store.ingest_many(sets)
    return store


def _query_suite(count: int):
    """(label, predicate) pairs; each touches ~1% of the store."""
    span = WINDOW_SECONDS * count
    window = (span * 0.45, span * 0.45 + span * 0.01)
    return [
        ("time-window", Q.between(window[0], window[1])),
        ("geo-radius", Q.near(GeoPoint(45.0, 0.0), 100.0)),
        (
            "attr-range",
            Q.attr("sequence").between(int(count * 0.3), int(count * 0.3) + count // 100),
        ),
        ("attr-equality", Q.attr("city") == "city-042"),
    ]


def _time_query(store: PassStore, predicate, force_full_scan: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        store.query_explain(predicate, force_full_scan=force_full_scan)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(count: int, assert_timing: bool, required_speedup: float) -> int:
    store = _build_store(count)
    client = LocalClient(store, owns_store=False)
    print(f"\n[planner vs full scan] {count} tuple sets")
    print(f"  {'query':>14} {'path':>18} {'rows':>6} {'scan ms':>9} {'plan ms':>9} {'speedup':>8}")
    failures = 0
    queries = {}
    for label, predicate in _query_suite(count):
        planned_pairs, explain = store.query_explain(predicate)
        scanned_pairs, _ = store.query_explain(predicate, force_full_scan=True)
        # Unordered queries may come back in path-dependent order
        # (index paths answer in digest order, scans in ingest order);
        # the matched *sets* must be identical.
        if {p for p, _ in planned_pairs} != {p for p, _ in scanned_pairs}:
            print(f"  PARITY FAILURE on {label}: planner and scan answers differ")
            failures += 1
            continue
        if explain.path_kind == "full-scan":
            print(f"  PLAN FAILURE on {label}: planner fell back to a full scan")
            failures += 1
            continue
        # client.explain must surface the same plan with estimate + actuals.
        facade = client.explain(predicate)
        if not facade.used_index or facade.actual_rows != len(planned_pairs):
            print(f"  EXPLAIN FAILURE on {label}: façade explain disagrees with execution")
            failures += 1
            continue
        scan_s = _time_query(store, predicate, force_full_scan=True)
        plan_s = _time_query(store, predicate, force_full_scan=False)
        speedup = scan_s / plan_s if plan_s > 0 else float("inf")
        print(
            f"  {label:>14} {explain.path_kind:>18} {len(planned_pairs):>6}"
            f" {scan_s * 1e3:>9.2f} {plan_s * 1e3:>9.2f} {speedup:>7.1f}x"
        )
        queries[label] = {
            "path": explain.path_kind,
            "rows": len(planned_pairs),
            "scan_ms": round(scan_s * 1e3, 3),
            "plan_ms": round(plan_s * 1e3, 3),
            "speedup": round(speedup, 2),
        }
        if assert_timing and speedup < required_speedup:
            print(
                f"  TIMING FAILURE on {label}: {speedup:.1f}x < required {required_speedup}x"
            )
            failures += 1
    write_bench_json(
        "query_planner",
        {
            "tuple_sets": count,
            "queries": queries,
            "gates": {"required_speedup": required_speedup, "failures": failures},
        },
    )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_planner_parity_and_paths_quick():
    """CI smoke: index plans chosen, scan parity holds; timing advisory."""
    assert_timing = os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    assert run_benchmark(QUICK_SIZE, assert_timing, required_speedup=2.0) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help=f"CI smoke size ({QUICK_SIZE} records)"
    )
    parser.add_argument("--size", type=int, default=None, help="override the record count")
    args = parser.parse_args(argv)
    count = args.size if args.size is not None else (QUICK_SIZE if args.quick else FULL_SIZE)
    # Plan shape and parity always gate; wall-clock gates outside --quick
    # (or when BENCH_ASSERT_TIMING=1 forces it).
    assert_timing = (
        not args.quick or os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    )
    required = 10.0 if count >= FULL_SIZE else 2.0
    failures = run_benchmark(count, assert_timing, required)
    if failures:
        print(f"\n{failures} failure(s)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
