"""Benchmark: the repro.lineage reachability index vs. naive full scans.

The acceptance claim of the lineage engine rebuild: on a 10^5-node
provenance graph with derivation chains 10^3 deep, planner-served
deep-lineage queries (``Q.derived_from(root)``) through the interval
index are >= 10x faster than the ``NaiveClosure`` full-scan baseline
(a scan that re-tests reachability per stored record -- what a plain
relational name-to-value scheme would do), while returning identical
results.

Run with:  python benchmarks/bench_lineage.py          (10^5 nodes, depth 10^3)
      or:  python benchmarks/bench_lineage.py --quick  (CI smoke, 10^4 nodes)
      or:  pytest benchmarks/bench_lineage.py -s

The quick mode gates CI on plan *shape* (lineage queries must be served
by a lineage access path, never a full scan, and must match the forced
full-scan answer exactly) plus the strategy-equivalence of the interval
index; wall-clock speedups stay advisory there because shared runners
make timing thresholds flaky.  The full mode asserts the 10x claim.
"""

from __future__ import annotations

import argparse
import sys
import time

from results_io import write_bench_json

from repro.api.dsl import Q
from repro.core.pass_store import PassStore
from repro.core.provenance import ProvenanceRecord

CHAIN_DEPTH = 1_000
QUICK_CHAIN_DEPTH = 500
QUERY_CHAINS = 5  # how many chain roots the timed query set probes


def build_records(total_nodes: int, chain_depth: int):
    """``total_nodes`` records in chains of ``chain_depth`` derivation steps."""
    chains = max(1, total_nodes // chain_depth)
    records = []
    roots = []
    for chain in range(chains):
        previous = None
        for position in range(chain_depth):
            record = ProvenanceRecord(
                {
                    "domain": "lineage-bench",
                    "chain": chain,
                    "position": position,
                    "city": "london" if chain % 2 else "boston",
                },
                ancestors=[previous] if previous is not None else [],
            )
            previous = record.pname()
            if position == 0:
                roots.append(previous)
            records.append(record)
    return records, roots


def populate(closure: str, records) -> PassStore:
    store = PassStore(closure=closure)
    for record in records:
        store.ingest_record(record)
    return store


def timed_queries(store: PassStore, roots, force_full_scan: bool, count: int = QUERY_CHAINS):
    """Run one deep-lineage query per probed root; return (seconds, answers, explains)."""
    answers = []
    explains = []
    started = time.perf_counter()
    for root in roots[:count]:
        pairs, explain = store.query_explain(
            Q.find(Q.derived_from(root)).build(), force_full_scan=force_full_scan
        )
        answers.append(frozenset(pname for pname, _ in pairs))
        explains.append(explain)
    return time.perf_counter() - started, answers, explains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: smaller graph")
    args = parser.parse_args(argv)

    total_nodes = 10_000 if args.quick else 100_000
    chain_depth = QUICK_CHAIN_DEPTH if args.quick else CHAIN_DEPTH
    records, roots = build_records(total_nodes, chain_depth)
    print(
        f"graph: {len(records)} nodes in {len(roots)} chains of depth {chain_depth}"
        f" ({'quick' if args.quick else 'full'} mode)"
    )

    build_started = time.perf_counter()
    indexed = populate("interval", records)
    build_seconds = time.perf_counter() - build_started
    naive = populate("naive", records)
    print(f"interval store built in {build_seconds:.2f}s")

    # --- plan shape: the planner must serve lineage from a lineage path.
    indexed_seconds, indexed_answers, explains = timed_queries(indexed, roots, False)
    for explain in explains:
        assert explain.path_kind == "lineage-descendants", explain.path_kind
        assert explain.used_index, "lineage query must not fall back to a full scan"
    per_query_ms = 1000.0 * indexed_seconds / QUERY_CHAINS
    print(f"interval index:  {per_query_ms:8.2f} ms/query (planner: {explains[0].path_kind})")
    stats = indexed.closure.index_stats()
    print(
        f"index shape:     {stats['chains']} chains, {stats['label_entries']} label entries, "
        f"{stats['rebuilds']} rebuild(s)"
    )
    # Compressed labelling: label entries are O(V * touched chains), and on a
    # chain workload each node's maps only touch its own chain (<< V^2 sets).
    assert stats["label_entries"] <= 4 * len(records), stats["label_entries"]

    # --- parity: identical answers to the naive strategy under a forced scan.
    # The baseline is so slow at full scale (that is the finding) that one
    # timed query suffices there; quick mode checks parity on all of them.
    naive_count = QUERY_CHAINS if args.quick else 1
    naive_seconds, naive_answers, naive_explains = timed_queries(
        naive, roots, True, count=naive_count
    )
    assert all(e.path_kind == "full-scan" for e in naive_explains)
    assert indexed_answers[:naive_count] == naive_answers, (
        "index-served answers must match the scan"
    )
    expected = chain_depth - 1
    assert all(len(answer) == expected for answer in indexed_answers)
    naive_ms = 1000.0 * naive_seconds / naive_count
    print(f"naive full scan: {naive_ms:8.2f} ms/query")

    speedup = naive_ms / max(per_query_ms, 1e-9)
    print(f"speedup:         {speedup:8.1f}x (gate: >= 10x in full mode)")
    if not args.quick:
        assert speedup >= 10.0, f"expected >= 10x over the naive full scan, got {speedup:.1f}x"

    write_bench_json(
        "lineage",
        {
            "nodes": len(records),
            "chain_depth": chain_depth,
            "build_seconds": round(build_seconds, 3),
            "indexed_ms_per_query": round(per_query_ms, 3),
            "naive_ms_per_query": round(naive_ms, 3),
            "speedup": round(speedup, 2),
            "label_entries": stats["label_entries"],
            "gates": {"required_speedup": 10.0, "timing_asserted": not args.quick},
        },
    )
    print("bench_lineage: ok")
    return 0


def test_lineage_bench_quick():
    """Tier-1 entry point: the deterministic quick gate."""
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    sys.exit(main())
