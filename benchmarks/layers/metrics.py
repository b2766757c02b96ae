"""The metric vocabulary of ``benchmarks/layers``: names, units, directions.

``BENCHMARK.json`` at the repository root lists exactly these (the smoke
test holds the two together); the README says what each one means.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

#: must equal ``run_seconds`` in BENCHMARK.json: what the timed sections
#: of one run (all its repetitions) were sized to total on the reference host
RUN_SECONDS = 10

#: workload -> the one sentence BENCHMARK.json records on why it exists
WHY = {
    "ingest_durable": (
        "sqlite:/// store, 1 client, single publishes then batches of 100, reopen and read-back: storage writes, "
        "index and closure maintenance do the work; planner and wire do none"
    ),
    "query_local": (
        "preloaded memory:// store, 1 client, fixed mix of hot/cold eq, range, time, geo and conjunction queries: "
        "planner, executor and indexes do the work; writes and wire do none"
    ),
    "lineage_churn": (
        "preloaded memory:// DAG, 1 client, 1 DAG-extending publish per 4 lineage reads: closure maintenance and "
        "closure lookups trade against each other; storage and wire do none"
    ),
    "service_mixed": (
        "PassDaemon in a child process, 2 connections, small publish/query/lineage ops: wire codec, daemon "
        "dispatch and remote client are most of every latency; the other three never touch a socket"
    ),
}
WORKLOADS = tuple(WHY)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("publish_p50_us", "us", "lower", 0.25),
    ("publish_many_per_set_p50_us", "us", "lower", 0.25),
    ("query_p50_us", "us", "lower", 0.25),
    ("lineage_p50_us", "us", "lower", 0.25),
    ("reopen_s", "s", "lower", 0.25),
    ("bytes_stored_per_user_byte", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

# (name, unit, better)
PER_LAYER = (
    ("server.protocol.encode_us", "us", "lower"),
    ("server.protocol.decode_us", "us", "lower"),
    ("server.protocol.bytes_per_op", "bytes", "lower"),
    ("server.rpc.publish_overhead_us", "us", "lower"),
    ("server.rpc.query_overhead_us", "us", "lower"),
    ("server.rpc.lineage_overhead_us", "us", "lower"),
    ("server.rpc.self_us", "us", "lower"),
    ("server.daemon.cpu_us_per_op", "us", "lower"),
    ("server.daemon.op_errors", "count", "lower"),
    ("api.client.publish_overhead_us", "us", "lower"),
    ("api.client.query_overhead_us", "us", "lower"),
    ("api.client.lineage_overhead_us", "us", "lower"),
    ("query.planner.plan_us", "us", "lower"),
    ("query.planner.plan_cache_hit_ratio", "ratio", "higher"),
    ("query.feedback.result_cache_hit_ratio", "ratio", "higher"),
    ("query.feedback.replans", "count", "lower"),
    ("query.feedback.stat_refreshes", "count", "lower"),
    ("query.executor.execute_us", "us", "lower"),
    ("query.executor.rows_scanned_per_row_returned", "ratio", "lower"),
    ("query.executor.full_scans", "count", "lower"),
    ("query.executor.index_path_ratio", "ratio", "higher"),
    ("index.attribute.lookup_us", "us", "lower"),
    ("index.attribute.range_us", "us", "lower"),
    ("index.temporal.lookup_us", "us", "lower"),
    ("index.spatial.lookup_us", "us", "lower"),
    ("index.maintain_us_per_record", "us", "lower"),
    ("core.pass_store.ingest_us", "us", "lower"),
    ("core.pass_store.ingest_many_us_per_set", "us", "lower"),
    ("core.pass_store.query_us", "us", "lower"),
    ("core.pass_store.lineage_us", "us", "lower"),
    ("storage.put_record_us", "us", "lower"),
    ("storage.put_batch_us_per_record", "us", "lower"),
    ("storage.get_records_us_per_record", "us", "lower"),
    ("storage.scan_all_us_per_record", "us", "lower"),
    ("storage.group_commits", "count", "lower"),
    ("storage.commit_ms_total", "ms", "lower"),
    ("storage.backend_puts_per_set", "count", "lower"),
    ("storage.backend_gets_per_row_returned", "count", "lower"),
    ("storage.file_bytes", "bytes", "lower"),
    ("storage.wal_bytes_at_close", "bytes", "lower"),
    ("storage.closure_restore_mode", "code", "higher"),
    ("storage.sharded.put_batch_ratio", "ratio", "lower"),
    ("storage.sharded.scan_all_ratio", "ratio", "lower"),
    ("storage.sharded.get_records_ratio", "ratio", "lower"),
    ("storage.sharded.shard_skew", "ratio", "lower"),
    ("core.closure.add_edge_us", "us", "lower"),
    ("core.closure.ancestors_us", "us", "lower"),
    ("core.closure.descendants_us", "us", "lower"),
    ("core.closure.reachable_us", "us", "lower"),
    ("core.closure.rebuilds", "count", "lower"),
    ("core.closure.incremental_merges", "count", "lower"),
    ("core.closure.strategy_switches", "count", "lower"),
    ("core.closure.label_entries_per_node", "ratio", "lower"),
    ("stream.match_us_per_publish", "us", "lower"),
    ("obs.trace_enabled_ratio", "ratio", "higher"),
    ("harness.span_overhead_ratio", "ratio", "higher"),
    ("proc.cpu_us_per_op", "us", "lower"),
    ("proc.gc_gen2_collections", "count", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("tail.publish_p99_us", "us", "lower"),
    ("tail.query_p99_us", "us", "lower"),
    ("tail.lineage_p99_us", "us", "lower"),
)

#: ``storage.closure_restore_mode`` as a number (the label is printed beside it)
RESTORE_MODES = {"none": 0, "partial": 1, "full": 2}

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_document() -> dict:
    """What BENCHMARK.json must say, built from this module."""
    return {
        "command": ["python3", "benchmarks/layers/run.py"],
        "paths": ["benchmarks/layers"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def as_metrics(values: Dict[str, float], names: Sequence[str]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line: every named metric, in order."""
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


#: what :func:`kernel_ns` takes on the reference host (this 2-core sandbox,
#: nothing else running); a constant, so reported times read as that host's
KERNEL_REFERENCE_NS = 350_000


def kernel_ns() -> int:
    """Time a fixed piece of pure-Python work that shares no code with the
    program under test: the yardstick for how fast the host is right now."""
    started = time.perf_counter_ns()
    table: Dict[int, int] = {}
    for number in range(4000):
        table[number & 255] = table.get(number & 255, 0) + number
    return time.perf_counter_ns() - started


def host_slowdown(readings: int = 3) -> float:
    """How much slower than the reference host this one runs at this moment
    (1.0 = as fast).  Every timing is divided by the slowdown read beside
    it: a neighbour that slows the whole sandbox by a third for a minute
    would otherwise move every latency of a run by a third (see README.md)."""
    return statistics.median(kernel_ns() for _ in range(readings)) / KERNEL_REFERENCE_NS


def percentile(ordered: Sequence[float], point: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(ordered) - 1, round(point / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def p99_of_fifths(samples: Sequence[float]) -> float:
    """p99 of each consecutive fifth of the section, then the median of the
    five: a single burst of noise cannot own the tail."""
    size = max(1, len(samples) // 5)
    fifths = [sorted(samples[begin : begin + size]) for begin in range(0, min(len(samples), size * 5), size)]
    return statistics.median(percentile(fifth, 99.0) for fifth in fifths)


def names_of(table) -> List[str]:
    return [row[0] for row in table]


if __name__ == "__main__":  # python3 benchmarks/layers/metrics.py > BENCHMARK.json
    import json

    print(json.dumps(benchmark_document(), indent=2))
