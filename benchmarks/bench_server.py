"""Benchmark: hundreds of concurrent clients against one provenance daemon.

The acceptance claim of ``repro.server``: one :class:`PassDaemon` serves
>= 200 genuinely concurrent client connections -- real sockets, real
threads, a real process boundary inside this process's daemon thread --
with full-protocol operations (publish + planned query + lineage) and
reports throughput and p50/p95/p99 per-operation latency.  The parity
gate runs in every mode: a fixed workload driven over ``pass://`` must
produce results *byte-identical* (canonical wire JSON) to the same
workload against ``memory://`` in-process.

Run with:  python benchmarks/bench_server.py          (200 connections)
      or:  python benchmarks/bench_server.py --quick  (CI smoke, 40 connections)
      or:  pytest benchmarks/bench_server.py -s

Parity and operation-success always gate; wall-clock throughput is
reported but never gated (shared runners make timing thresholds flaky).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time

from results_io import write_bench_json

from repro.api import connect
from repro.api.dsl import Q
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import ProvenanceRecord
from repro.core.tupleset import SensorReading, TupleSet
from repro.obs import trace
from repro.server import PassDaemon, protocol

FULL_CLIENTS, FULL_OPS = 200, 12
QUICK_CLIENTS, QUICK_OPS = 40, 8
PARITY_SETS = 60

_CITIES = ("london", "boston", "tokyo", "geneva")


def _percentiles(samples, points=(50.0, 95.0, 99.0)) -> dict:
    if not samples:
        return {f"p{point:g}": None for point in points}
    ordered = sorted(samples)
    facts = {}
    for point in points:
        rank = max(0, min(len(ordered) - 1, round(point / 100.0 * len(ordered)) - 1))
        facts[f"p{point:g}"] = ordered[rank]
    return facts


# ----------------------------------------------------------------------
# Fixed parity workload
# ----------------------------------------------------------------------
def _parity_sets(count: int = PARITY_SETS):
    """A deterministic workload with attributes, locations and lineage."""
    sets = []
    previous = None
    for index in range(count):
        ancestors = [previous] if previous is not None and index % 3 == 0 else []
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "city": _CITIES[index % len(_CITIES)],
                "sequence": index,
                "window_start": Timestamp(300.0 * index),
                "window_end": Timestamp(300.0 * (index + 1)),
                "location": GeoPoint(51.5 + 0.01 * index, -0.12),
            }
        , ancestors=ancestors)
        readings = [
            SensorReading(
                f"cam-{index:04d}-{i}",
                Timestamp(300.0 * index + i),
                {"vehicle_count": 5 + i, "mean_speed_kph": 30.0 + index},
                GeoPoint(51.5, -0.12),
            )
            for i in range(2)
        ]
        sets.append(TupleSet(readings, record))
        previous = record.pname()
    return sets


def _parity_queries(sets):
    return [
        ("city-eq", Q.attr("city") == "london"),
        ("seq-range", Q.attr("sequence").between(10, 40)),
        ("near", Q.near(GeoPoint(51.6, -0.12), 25.0)),
        ("descendants", Q.derived_from(sets[0].pname)),
        ("ordered", Q.find(Q.attr("domain") == "traffic").order_by("sequence").build()),
    ]


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _drive_parity(client, sets) -> bytes:
    """Publish the fixed workload and serialize every answer canonically."""
    transcript = []
    published = client.publish_many(sets)
    transcript.append(("publish_many", protocol.result_to_wire(published)))
    for label, query in _parity_queries(sets):
        result = client.query(query, limit=25)
        transcript.append((label, protocol.result_to_wire(result)))
    explain_wire = protocol.explain_to_wire(client.explain(Q.attr("city") == "boston"))
    # duration_ms is wall time, the one legitimately nondeterministic
    # Explain field; everything else stays in the byte-parity gate.
    explain_wire.pop("duration_ms", None)
    transcript.append(("explain", explain_wire))
    tail = sets[-1]
    transcript.append(
        ("ancestors", protocol.result_to_wire(client.ancestors(tail, limit=10)))
    )
    transcript.append(
        ("locate", protocol.result_to_wire(client.locate(sets[0].pname)))
    )
    return _canonical(transcript)


def parity_gate(address) -> int:
    """Remote answers must be byte-identical to the in-process ones."""
    sets = _parity_sets()
    with connect("memory://") as local:
        expected = _drive_parity(local, sets)
    with connect(f"{address.url}?tenant=parity") as remote:
        actual = _drive_parity(remote, sets)
    if expected != actual:
        print("  PARITY FAILURE: pass:// transcript differs from memory://")
        return 1
    print(f"  parity: {len(expected)} canonical bytes, remote == local")
    return 0


# ----------------------------------------------------------------------
# Tracing overhead gate
# ----------------------------------------------------------------------
def _overhead_pass(address, tenant: str, publishes: int, queries: int, lookups: int) -> dict:
    """One interleaved overhead measurement against a fresh tenant.

    Methodology: every individual operation alternates untraced/traced
    against one shared tenant (a representative 120-record-set store --
    on a near-empty store the fixed per-span cost reads as a far larger
    fraction than any production workload would see), and per-op-kind
    medians are compared.  Interleaving at op granularity means both
    populations sample the *same* ambient noise -- multi-second load
    bursts on shared runners poison whole rounds, which is why
    round-level comparisons proved unstable.  The headline ratio weights
    the per-kind medians by the workload's op mix.
    """
    kinds = ("publish", "query", "ancestors")
    samples = {(kind, mode): [] for kind in kinds for mode in "ut"}
    spans_seen = 0

    with connect(f"{address.url}?tenant={tenant}") as client:
        # A chained seed store: attribute queries scan real candidates
        # and the ancestors anchor walks a 120-deep derivation chain.
        seed_sets = _client_sets(0, 120, chain=True)
        client.publish_many(seed_sets)
        for _ in range(10):  # warm plan caches, lazy imports, allocator
            client.query(Q.attr("city") == "london", limit=10)
        gc.collect()

        def timed(kind: str, mode: str, operation) -> None:
            nonlocal spans_seen
            if mode == "t":
                trace.enable()
            started = time.perf_counter()
            operation()
            elapsed = time.perf_counter() - started
            if mode == "t":
                trace.disable()
                spans_seen += len(trace.drain())
            samples[(kind, mode)].append(elapsed)

        for index in range(publishes):
            batch = _client_sets(index + 1, 5)
            timed("publish", "ut"[index % 2], lambda b=batch: client.publish_many(b))
        for index in range(queries):
            timed(
                "query",
                "ut"[index % 2],
                lambda: client.query(Q.attr("city") == "london", limit=10),
            )
        anchor = seed_sets[-1]
        for index in range(lookups):
            timed("ancestors", "ut"[index % 2], lambda: client.ancestors(anchor, limit=10))

    weights = {"publish": publishes, "query": queries, "ancestors": lookups}
    medians = {
        key: sorted(values)[len(values) // 2] for key, values in samples.items()
    }
    untraced_ms = sum(weights[k] * medians[(k, "u")] for k in kinds) * 1e3
    traced_ms = sum(weights[k] * medians[(k, "t")] for k in kinds) * 1e3
    ratio = traced_ms / untraced_ms if untraced_ms > 0 else float("inf")
    per_kind = {k: round(medians[(k, "t")] / medians[(k, "u")], 4) for k in kinds}
    return {
        "untraced_ms": round(untraced_ms, 2),
        "traced_ms": round(traced_ms, 2),
        "ratio": round(ratio, 4),
        "per_kind": per_kind,
        "spans_traced_total": spans_seen,
    }


def tracing_overhead_gate(address, quick: bool) -> tuple:
    """Traced ops must stay within 10% of untraced (full mode gates).

    Runs one interleaved pass (see :func:`_overhead_pass`); if that pass
    exceeds the limit, a second pass on a fresh tenant decides -- the
    better of the two counts.  A real regression fails both passes; a
    noise burst on a shared runner rarely survives two.  Quick mode runs
    a shorter mix and gates loosely -- CI runners make tight timing
    thresholds flaky.
    """
    # Publish batches are individually slow (~2-3 ms) and carry much of
    # the weighted total, so they need as many samples as the cheap ops
    # or one unlucky batch swings the headline median.
    publishes, queries, lookups = (6, 40, 10) if quick else (24, 160, 40)
    limit = 1.5 if quick else 1.10
    facts = _overhead_pass(address, "overhead", publishes, queries, lookups)
    passes = 1
    if facts["ratio"] > limit:
        retry = _overhead_pass(address, "overhead-retry", publishes, queries, lookups)
        retry["spans_traced_total"] += facts["spans_traced_total"]
        if retry["ratio"] < facts["ratio"]:
            facts = retry
        passes = 2
    ratio = facts["ratio"]
    per_kind = facts["per_kind"]
    spans_seen = facts["spans_traced_total"]
    print(
        f"  tracing overhead: untraced {facts['untraced_ms']:.1f} ms, "
        f"traced {facts['traced_ms']:.1f} ms "
        f"(ratio {ratio:.3f}, limit {limit:.2f}, {spans_seen} spans, "
        f"{passes} pass(es); per-kind "
        + " ".join(f"{k}={per_kind[k]:.3f}" for k in per_kind)
        + ")"
    )
    failures = 0
    if ratio > limit:
        print(f"  TRACING OVERHEAD FAILURE: ratio {ratio:.3f} > {limit:.2f}")
        failures = 1
    if spans_seen == 0:
        print("  TRACING FAILURE: traced ops produced no spans")
        failures += 1
    facts["limit"] = limit
    facts["measurement_passes"] = passes
    return failures, facts


# ----------------------------------------------------------------------
# Concurrency benchmark
# ----------------------------------------------------------------------
def _client_sets(client_index: int, ops: int, chain: bool = False):
    """Per-client unique tuple sets (identical provenance would be refused).

    With ``chain=True`` each set derives from the previous one, so
    lineage ops against the tail walk a real derivation chain.
    """
    sets = []
    previous = None
    for op in range(ops):
        record = ProvenanceRecord(
            {
                "domain": "bench",
                "city": _CITIES[(client_index + op) % len(_CITIES)],
                "client": client_index,
                "sequence": op,
                "window_start": Timestamp(60.0 * op),
                "window_end": Timestamp(60.0 * (op + 1)),
            },
            ancestors=[previous] if chain and previous is not None else [],
        )
        readings = [
            SensorReading(
                f"c{client_index:03d}-s{op:03d}", Timestamp(60.0 * op), {"v": float(op)}
            )
        ]
        sets.append(TupleSet(readings, record))
        previous = record.pname()
    return sets


def _worker(url, client_index, ops, barrier, latencies, errors):
    try:
        client = connect(url)
    except Exception as error:
        errors.append(f"client {client_index} failed to connect: {error}")
        barrier.wait()
        return
    try:
        sets = _client_sets(client_index, ops)
        # Everyone holds an open connection before anyone starts: the
        # daemon genuinely has all N sockets live at once.
        barrier.wait()
        for op, tuple_set in enumerate(sets):
            started = time.perf_counter()
            if op % 4 == 3:
                client.query(Q.attr("client") == client_index, limit=5)
            else:
                client.publish(tuple_set)
            latencies.append((time.perf_counter() - started) * 1e3)
    except Exception as error:
        errors.append(f"client {client_index}: {error}")
    finally:
        client.close()


def run_concurrency(clients: int, ops: int, quick: bool = False) -> tuple:
    daemon = PassDaemon()
    address = daemon.start()
    failures = parity_gate(address)
    overhead_failures, overhead = tracing_overhead_gate(address, quick)
    failures += overhead_failures

    latencies = []
    errors = []
    barrier = threading.Barrier(clients + 1)
    url = f"{address.url}?tenant=bench"
    threads = [
        threading.Thread(
            target=_worker,
            args=(url, index, ops, barrier, latencies, errors),
            daemon=True,
        )
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # all connections are up; the clock starts now
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    daemon.stop()

    total_ops = len(latencies)
    throughput = total_ops / elapsed if elapsed > 0 else float("inf")
    stats = _percentiles(latencies)
    print(f"\n[server] {clients} concurrent connections x {ops} ops each")
    print(f"  operations:  {total_ops:,} in {elapsed:.2f}s  ({throughput:,.0f} ops/s)")
    print(
        f"  latency ms:  p50 {stats['p50']:.2f}  p95 {stats['p95']:.2f}  "
        f"p99 {stats['p99']:.2f}"
    )
    if errors:
        print(f"  OPERATION FAILURES ({len(errors)}):")
        for line in errors[:10]:
            print(f"    {line}")
        failures += 1
    if total_ops != clients * ops:
        print(f"  COUNT FAILURE: expected {clients * ops} ops, saw {total_ops}")
        failures += 1
    return failures, {
        "connections": clients,
        "ops_per_client": ops,
        "operations": total_ops,
        "elapsed_s": round(elapsed, 3),
        "throughput_ops_per_s": round(throughput, 1),
        "latency_ms": {key: round(value, 3) for key, value in stats.items()},
        "tracing_overhead": overhead,
    }


def run_benchmark(clients: int, ops: int, quick: bool = False) -> int:
    failures, facts = run_concurrency(clients, ops, quick)
    write_bench_json(
        "server",
        {
            **facts,
            "gates": {
                "parity": "byte-identical pass:// vs memory://",
                "tracing_overhead": "traced workload within limit of untraced",
                "min_connections_full_mode": FULL_CLIENTS,
                "failures": failures,
            },
        },
    )
    return failures


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_server_bench_quick():
    """CI smoke: parity gate + concurrent-connection success; timing advisory."""
    assert run_benchmark(QUICK_CLIENTS, QUICK_OPS, quick=True) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke size ({QUICK_CLIENTS} connections x {QUICK_OPS} ops)",
    )
    parser.add_argument("--clients", type=int, default=None, help="override connection count")
    parser.add_argument("--ops", type=int, default=None, help="override ops per client")
    args = parser.parse_args(argv)
    clients = args.clients if args.clients is not None else (
        QUICK_CLIENTS if args.quick else FULL_CLIENTS
    )
    ops = args.ops if args.ops is not None else (QUICK_OPS if args.quick else FULL_OPS)
    failures = run_benchmark(clients, ops, quick=args.quick)
    if failures:
        print(f"\n{failures} failure(s)")
        return 1
    print("\nok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
