"""Benchmark: adaptive recovery from a mid-run selectivity shift.

The acceptance claim of the ``repro.query.feedback`` loop: when the data
distribution shifts under a cached plan -- here, one city's attribute
bucket ballooning from ~2% of the store to ~45% of it -- the adaptive
engine must notice the estimated-vs-actual drift, re-rank the shape, and
settle back to within 20% of the statically-optimal latency (a planner
that re-ranks every query from fresh statistics).  A static engine
(feedback disabled) keeps the stale single-probe plan and scans the
bloated bucket forever.

Run with:  python benchmarks/bench_adaptive.py          (10^4 base records)
      or:  python benchmarks/bench_adaptive.py --quick  (CI smoke, 2x10^3)
      or:  pytest benchmarks/bench_adaptive.py -s

Answer parity (adaptive vs. static, every probe) and drift firing always
gate; the 20% wall-clock gate applies in full mode (shared CI runners
make timing thresholds flaky, so --quick keeps it advisory unless
BENCH_ASSERT_TIMING=1).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from results_io import write_bench_json

from repro.api.dsl import Q
from repro.core.pass_store import PassStore
from repro.core.provenance import ProvenanceRecord
from repro.core.tupleset import TupleSet
from repro.query.planner import QueryPlanner

FULL_SIZE = 10_000
QUICK_SIZE = 2_000
#: flood this fraction of the base size into one city (under the 4x
#: staleness factor, so only the feedback loop can notice the shift)
FLOOD_FACTOR = 0.8
CITIES = 50
HOT_CITY = "city-007"
#: probes after the shift; drift needs 4 misestimating cache hits, so
#: this leaves a long steady-state tail to time
SHIFT_PROBES = 24
#: trailing probes used for the steady-state timing comparison
STEADY_TAIL = 12
RECOVERY_HEADROOM = 1.2


def _build_store(base: int, flood: int) -> PassStore:
    """``base`` records spread evenly over cities, then ``flood`` more
    all in HOT_CITY -- the mid-run distribution shift, pre-applied for
    engines built after the shift."""
    store = PassStore()
    _ingest_uniform(store, base)
    _ingest_flood(store, base, flood)
    return store


def _ingest_uniform(store: PassStore, base: int) -> None:
    sets = []
    for index in range(base):
        record = ProvenanceRecord(
            {"domain": "traffic", "city": f"city-{index % CITIES:03d}", "sequence": index}
        )
        sets.append(TupleSet([], record))
        if len(sets) >= 2000:
            store.ingest_many(sets)
            sets = []
    if sets:
        store.ingest_many(sets)


def _ingest_flood(store: PassStore, base: int, flood: int) -> None:
    sets = []
    for index in range(base, base + flood):
        record = ProvenanceRecord(
            {"domain": "traffic", "city": HOT_CITY, "sequence": index}
        )
        sets.append(TupleSet([], record))
        if len(sets) >= 2000:
            store.ingest_many(sets)
            sets = []
    if sets:
        store.ingest_many(sets)


def _warm_predicate(base: int, flood: int):
    """HOT_CITY with a range spanning everything: the range conjunct is
    unselective, so the planner caches the single equality probe."""
    return (Q.attr("city") == HOT_CITY) & Q.attr("sequence").between(
        0, (base + flood) * 10
    )


def _shift_predicate(base: int, probe: int):
    """Same shape, narrow sliding range over the *original* region,
    where HOT_CITY holds ~2% of rows: the cached equality probe now
    scans the flooded bucket to find a handful of matches."""
    width = max(10, base // 100)
    low = (base // 10 + probe * width) % (base - width)
    return (Q.attr("city") == HOT_CITY) & Q.attr("sequence").between(low, low + width)


def _timed_query(store: PassStore, predicate):
    start = time.perf_counter()
    pairs, explain = store.query_explain(predicate)
    return (time.perf_counter() - start) * 1e3, pairs, explain


def run_benchmark(base: int, assert_timing: bool) -> int:
    flood = int(base * FLOOD_FACTOR)
    failures = 0

    # Three engines over identical data.  The adaptive store lives
    # through the shift (warm -> flood -> probes); static and optimal
    # are built post-shift, then static warms its plan cache on the
    # pre-shift query so it carries the same stale selection.
    adaptive = PassStore()
    _ingest_uniform(adaptive, base)
    static = _build_store(base, flood)
    static.feedback.enabled = False
    optimal = _build_store(base, flood)
    optimal.feedback.enabled = False

    warm = _warm_predicate(base, flood)
    for _ in range(4):
        adaptive.query_explain(warm)
        static.query_explain(warm)
    _ingest_flood(adaptive, base, flood)

    print(f"\n[adaptive recovery] {base} base + {flood} flooded into {HOT_CITY}")
    print(f"  {'probe':>5} {'adaptive ms':>12} {'static ms':>10} {'optimal ms':>11}  note")
    adaptive_ms, static_ms, optimal_ms = [], [], []
    adapted_at = None
    adapted_reason = None
    for probe in range(SHIFT_PROBES):
        predicate = _shift_predicate(base, probe)
        a_ms, a_pairs, a_explain = _timed_query(adaptive, predicate)
        s_ms, s_pairs, _ = _timed_query(static, predicate)
        # Statically optimal: fresh ranking every query, no feedback.
        optimal.planner = QueryPlanner(optimal)
        o_ms, o_pairs, _ = _timed_query(optimal, predicate)
        adaptive_ms.append(a_ms)
        static_ms.append(s_ms)
        optimal_ms.append(o_ms)
        note = ""
        if a_explain.adapted and adapted_at is None:
            adapted_at = probe
            adapted_reason = a_explain.adapted
            note = a_explain.adapted
        print(f"  {probe:>5} {a_ms:>12.3f} {s_ms:>10.3f} {o_ms:>11.3f}  {note}")
        # Answers must be identical across engines on every probe: the
        # feedback loop may only change *how* candidates are generated.
        digests = {p.digest for p, _ in a_pairs}
        if digests != {p.digest for p, _ in s_pairs} or digests != {
            p.digest for p, _ in o_pairs
        }:
            print(f"  PARITY FAILURE on probe {probe}: engines disagree")
            failures += 1

    if adapted_at is None:
        print("  DRIFT FAILURE: the adaptive engine never re-ranked the shape")
        failures += 1

    tail = slice(-STEADY_TAIL, None)
    steady_adaptive = sum(adaptive_ms[tail]) / STEADY_TAIL
    steady_static = sum(static_ms[tail]) / STEADY_TAIL
    steady_optimal = sum(optimal_ms[tail]) / STEADY_TAIL
    ratio = steady_adaptive / steady_optimal if steady_optimal > 0 else float("inf")
    print(
        f"\n  steady state: adaptive {steady_adaptive:.3f} ms,"
        f" optimal {steady_optimal:.3f} ms, stale static {steady_static:.3f} ms"
        f" (adaptive/optimal = {ratio:.2f}x, gate {RECOVERY_HEADROOM}x)"
    )
    if assert_timing and ratio > RECOVERY_HEADROOM:
        print(
            f"  RECOVERY FAILURE: {ratio:.2f}x > allowed {RECOVERY_HEADROOM}x"
            " of statically-optimal latency"
        )
        failures += 1

    if base != FULL_SIZE:
        # The headline ratio is only comparable at the canonical size;
        # a --quick / --size run must not clobber the committed artifact
        # (and would spuriously trip the conftest regression warning).
        print(f"  (artifact not written: {base} != canonical {FULL_SIZE} records)")
        return failures
    write_bench_json(
        "adaptive",
        {
            "tuple_sets": base,
            "flooded": flood,
            "recovery": {
                "queries_to_adapt": adapted_at,
                "reason": adapted_reason,
            },
            "steady_state_ms": {
                "adaptive": round(steady_adaptive, 3),
                "optimal": round(steady_optimal, 3),
                "static": round(steady_static, 3),
            },
            "feedback": adaptive.feedback.snapshot(),
            "gates": {
                "recovery_headroom": RECOVERY_HEADROOM,
                "timing_asserted": assert_timing,
                "failures": failures,
            },
            "headline": {
                "metric": "steady_state_vs_optimal_ratio",
                "value": round(ratio, 3),
                "higher_is_better": False,
            },
        },
    )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_adaptive_recovery_quick():
    """CI smoke: parity + drift re-rank must fire; timing advisory."""
    assert_timing = os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    assert run_benchmark(QUICK_SIZE, assert_timing) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help=f"CI smoke size ({QUICK_SIZE} records)"
    )
    parser.add_argument("--size", type=int, default=None, help="override the record count")
    args = parser.parse_args(argv)
    base = args.size if args.size is not None else (QUICK_SIZE if args.quick else FULL_SIZE)
    # Parity and drift always gate; wall-clock gates outside --quick
    # (or when BENCH_ASSERT_TIMING=1 forces it).
    assert_timing = not args.quick or os.environ.get("BENCH_ASSERT_TIMING", "0") != "0"
    failures = run_benchmark(base, assert_timing)
    if failures:
        print(f"\n{failures} failure(s)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
