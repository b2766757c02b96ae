"""The traced run's span log, counter arithmetic and leaf-layer probes.

Spans cannot go inside ``src/`` yet, so the harness records its own: one
per call at each boundary of the twin replay (``rep.traced_repetition``),
and one per call made here straight into a leaf layer's public functions
(indexes, planner, executor, closure, storage backends, wire codec) on
the twin store as the run left it.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import bootstrap  # noqa: F401  (puts src/ on sys.path)

from repro import Q, connect
from repro.api.dsl import as_query
from repro.api.results import Result
from repro.core.closure import make_closure
from repro.core.query import AttributeEquals, AttributeRange, NearLocation, TimeWindowOverlaps
from repro.index.attribute_index import AttributeIndex
from repro.index.spatial_index import SpatialIndex
from repro.index.temporal_index import TemporalIndex
from repro.query.executor import execute
from repro.server import protocol
from repro.storage.factory import make_backend

from metrics import host_slowdown
from workload import BATCH, DERIVED, PAGE, PUBLISH, PUBLISH_MANY, QUERY

OP_NAMES = ("publish", "publish_many", "query", "ancestors", "descendants", "query")
#: how many calls each leaf probe makes at most
PROBE_CALLS = 400
SUBSCRIPTIONS = 16
SHARDS = 4


class SpanLog:
    """Every span of a traced run: kept in memory, dumped once at the end."""

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "op")

    def __init__(self) -> None:
        self.rows: List[list] = []

    def __len__(self) -> int:
        return len(self.rows)

    def add_sections(self, layer: str, sections, parent: Optional[Dict[str, int]]) -> Dict[str, int]:
        """Log one pass's spans; returns op id -> span id for the next level down.

        An op keeps its id (``section/connection/number``) at every level,
        so the span of the same op one boundary up is its parent -- also
        when a single-client twin ran two connections' ops interleaved.
        """
        ids: Dict[str, int] = {}
        for section in sections:
            for code, started, ended, op_id in section.spans:
                ids[op_id] = len(self.rows)
                above = parent.get(op_id, -1) if parent is not None else -1
                self.rows.append([f"{layer}.{OP_NAMES[code]}", started, ended, above, op_id])
        return ids

    def timed(self, name: str, calls: Sequence[Callable[[], object]], per: int = 1) -> float:
        """Span each call; returns the p50 in reference-host microseconds (÷ ``per``)."""
        now = time.perf_counter_ns
        micros = []
        slowdown = host_slowdown()
        for call in calls:
            started = now()
            call()
            ended = now()
            self.rows.append([name, started, ended, -1, "probe"])
            micros.append((ended - started) / 1000.0 / per)
        slowdown = (slowdown + host_slowdown()) / 2.0
        return statistics.median(micros) / slowdown if micros else 0.0

    def dump(self, path: Path, header: dict) -> None:
        document = dict(header, columns=self.COLUMNS, spans=self.rows)
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


# ----------------------------------------------------------------------
# Counts: client.stats() before and after the pass, and the answers seen
# ----------------------------------------------------------------------
def _walk(stats: dict, dotted: str) -> float:
    node = stats
    for key in dotted.split("."):
        node = node.get(key, 0) if isinstance(node, dict) else 0
    return node if isinstance(node, (int, float)) else 0


def counters(before: dict, after: dict, sections) -> Dict[str, float]:
    """The count and ratio rows, over the main and coverage sections only."""

    def delta(dotted: str) -> float:
        return _walk(after, dotted) - _walk(before, dotted)

    rows_returned = sum(section.rows_returned for section in sections)
    sets_published = sum(section.sets_published for section in sections)
    cache_hits = delta("planner.feedback.result_cache.hits")
    cache_misses = delta("planner.feedback.result_cache.misses")
    planned = delta("store.queries") - cache_hits
    full_scans = delta("store.full_scans")
    nodes = _walk(after, "planner.statistics.graph.nodes")
    return {
        "query.planner.plan_cache_hit_ratio": delta("planner.cache.hits") / planned if planned else 0.0,
        "query.feedback.result_cache_hit_ratio": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
        ),
        "query.feedback.replans": delta("planner.feedback.plans_invalidated"),
        "query.feedback.stat_refreshes": delta("planner.feedback.stats_refreshes"),
        "query.executor.rows_scanned_per_row_returned": (
            delta("store.records_scanned") / rows_returned if rows_returned else 0.0
        ),
        "query.executor.full_scans": full_scans,
        "query.executor.index_path_ratio": 1.0 - full_scans / planned if planned else 0.0,
        "storage.group_commits": delta("storage.group_commits"),
        "storage.commit_ms_total": delta("storage.commit_ms.total"),
        "storage.backend_puts_per_set": delta("backend.puts") / sets_published if sets_published else 0.0,
        "storage.backend_gets_per_row_returned": delta("backend.gets") / rows_returned if rows_returned else 0.0,
        "core.closure.rebuilds": delta("closure.rebuilds"),
        "core.closure.incremental_merges": delta("closure.incremental_merges"),
        "core.closure.strategy_switches": delta("planner.feedback.closure_switches"),
        "core.closure.label_entries_per_node": _walk(after, "closure.label_entries") / nodes if nodes else 0.0,
    }


#: counts that no clock can reach: two passes over the same inputs must report the same
REPEATING_COUNTS = (
    "storage.group_commits",
    "storage.backend_puts_per_set",
    "storage.backend_gets_per_row_returned",
    "query.executor.rows_scanned_per_row_returned",
    "query.executor.full_scans",
)


def daemon_errors(daemon_metrics: dict) -> int:
    """Errors the daemon's ``metrics`` op counted, over every tenant and op."""
    return sum(
        block["errors"] for tenant in daemon_metrics["tenants"].values() for block in tenant["ops"].values()
    )


# ----------------------------------------------------------------------
# server.protocol: the codec on sampled request/response objects
# ----------------------------------------------------------------------
def request_envelope(op, number: int) -> dict:
    """The envelope ``RemoteClient`` sends for ``op`` (to-wire work included)."""
    if op.code == PUBLISH:
        args = {"tuple_set": protocol.tuple_set_to_wire(op.arg)}
    elif op.code == PUBLISH_MANY:
        args = {"tuple_sets": [protocol.tuple_set_to_wire(ts) for ts in op.arg]}
    elif op.code in (QUERY, DERIVED):
        args = {"query": protocol.query_to_wire(as_query(op.arg)), "limit": PAGE}
    else:
        args = {"pname": op.arg.digest, "limit": PAGE}
    return {"id": number, "op": OP_NAMES[op.code], "args": args}


def _decode_request(code: int, body: bytes) -> None:
    """What the daemon does with a request frame before it can dispatch."""
    args = protocol.decode_body(body)["args"]
    if code == PUBLISH:
        protocol.tuple_set_from_wire(args["tuple_set"])
    elif code == PUBLISH_MANY:
        for item in args["tuple_sets"]:
            protocol.tuple_set_from_wire(item)
    elif code in (QUERY, DERIVED):
        protocol.query_from_wire(args["query"])
    else:
        protocol.pname_from_wire(args["pname"])


def codec(answered: Sequence[tuple], log: SpanLog) -> Dict[str, float]:
    """Encode and decode both frames of the ``(op, Result)`` pairs the
    in-process twin's main section kept."""
    now = time.perf_counter_ns
    encode_us, decode_us, frame_bytes = [], [], []
    slowdown = host_slowdown()
    for number, (op, result) in enumerate(answered):
        if not isinstance(result, Result):
            continue
        t0 = now()
        request = protocol.encode_frame(request_envelope(op, number))
        response = protocol.encode_frame({"id": number, "ok": True, "result": protocol.result_to_wire(result)})
        t1 = now()
        _decode_request(op.code, request[4:])
        protocol.result_from_wire(protocol.decode_body(response[4:])["result"])
        t2 = now()
        log.rows.append(["server.protocol.encode", t0, t1, -1, "probe"])
        log.rows.append(["server.protocol.decode", t1, t2, -1, "probe"])
        encode_us.append((t1 - t0) / 1000.0)
        decode_us.append((t2 - t1) / 1000.0)
        frame_bytes.append(len(request) + len(response))
    slowdown = (slowdown + host_slowdown()) / 2.0
    return {
        "server.protocol.encode_us": statistics.median(encode_us) / slowdown,
        "server.protocol.decode_us": statistics.median(decode_us) / slowdown,
        "server.protocol.bytes_per_op": sum(frame_bytes) / len(frame_bytes),
    }


# ----------------------------------------------------------------------
# Leaf layers on the PassStore twin, as the run left it
# ----------------------------------------------------------------------
def _predicates(stream, kind: str, cls, count: int) -> list:
    found = []
    for _ in range(count):
        predicate = as_query(stream.query_op(kind, check=False).arg).predicate
        if isinstance(predicate, cls):
            found.append(predicate)
    return found


def leaves(store, queries: Sequence, inputs, log: SpanLog) -> Dict[str, float]:
    """Planner, executor, the three indexes and the closure, called directly.

    Planner and executor take the queries the run recorded; the index and
    closure probes take fresh draws from the same generator (every kind,
    also on workloads whose mix lacks one).
    """
    stream = inputs.streams[0]
    queries = queries[:PROBE_CALLS]
    values = {
        "query.planner.plan_us": log.timed(
            "query.planner.plan", [lambda q=q: store.planner.plan(q) for q in queries]
        ),
        "query.executor.execute_us": log.timed(
            "query.executor.execute", [lambda q=q: execute(store, q) for q in queries]
        ),
    }
    attribute, temporal, spatial = store.attribute_index, store.temporal_index, store.spatial_index
    values["index.attribute.lookup_us"] = log.timed(
        "index.attribute.lookup",
        [lambda p=p: attribute.lookup(p.name, p.value) for p in _predicates(stream, "eq_cold", AttributeEquals, PROBE_CALLS)],
    )
    values["index.attribute.range_us"] = log.timed(
        "index.attribute.lookup_range",
        [lambda p=p: attribute.lookup_range(p.name, p.low, p.high) for p in _predicates(stream, "range", AttributeRange, PROBE_CALLS)],
    )
    values["index.temporal.lookup_us"] = log.timed(
        "index.temporal.overlapping",
        [lambda p=p: temporal.overlapping(p.start, p.end) for p in _predicates(stream, "window", TimeWindowOverlaps, PROBE_CALLS)],
    )
    values["index.spatial.lookup_us"] = log.timed(
        "index.spatial.within_radius",
        [lambda p=p: spatial.within_radius(p.centre, p.radius_km) for p in _predicates(stream, "near", NearLocation, PROBE_CALLS // 8)],
    )

    # index maintenance: fresh indexes fed the first records of the preload
    records = [tuple_set.provenance for tuple_set in inputs.head[:PROBE_CALLS]]
    fresh = (AttributeIndex(), TemporalIndex(), SpatialIndex())

    def maintain(record) -> None:
        pname = record.pname()
        fresh[0].add(pname, record)
        fresh[1].add(pname, record.get("window_start"), record.get("window_end"))
        fresh[2].add(pname, record.get("location"))

    values["index.maintain_us_per_record"] = log.timed(
        "index.maintain", [lambda r=r: maintain(r) for r in records]
    )

    # closure reads on the live labelling, edge insertion on a fresh one
    closure = store.closure
    ups = [stream.lineage_op(kind, check=False).arg for kind in ("ancestors_aggregate", "ancestors_chain") for _ in range(PROBE_CALLS // 2)]
    downs = [stream.lineage_op("descendants_raw", check=False).arg for _ in range(PROBE_CALLS)]
    values["core.closure.ancestors_us"] = log.timed(
        "core.closure.ancestors", [lambda p=p: closure.ancestors(p) for p in ups]
    )
    values["core.closure.descendants_us"] = log.timed(
        "core.closure.descendants", [lambda p=p: closure.descendants(p) for p in downs]
    )
    values["core.closure.reachable_us"] = log.timed(
        "core.closure.reachable", [lambda a=a, d=d: closure.reachable(a, d) for a, d in zip(downs, ups)]
    )
    empty = make_closure(closure.name)
    edges = [(record.pname(), parent) for record in records for parent in record.ancestors]
    for child, parent in edges:
        empty.add_node(child)
        empty.add_node(parent)
    values["core.closure.add_edge_us"] = log.timed(
        "core.closure.add_edge", [lambda c=c, p=p: empty.add_edge(c, p) for c, p in edges]
    )
    return values


def entries(store, sets: Sequence) -> list:
    """``(record, payload)`` pairs of ``sets``, the payloads as ``store`` encoded them."""
    return [(tuple_set.provenance, store.backend.get_payload(tuple_set.pname)) for tuple_set in sets]


def _backend_times(backend, entries: list, log: SpanLog, layer: str) -> Dict[str, float]:
    """Single puts, batch puts, bulk gets and scans on a fresh backend."""
    singles, batched = entries[:BATCH], entries[BATCH:]
    batches = [batched[begin : begin + BATCH] for begin in range(0, len(batched), BATCH)]
    pnames = [record.pname() for record, _ in entries]

    def put(record, payload) -> None:
        backend.put_record(record)
        backend.put_payload(record.pname(), payload)

    times = {
        "put_record_us": log.timed(f"{layer}.put_record", [lambda r=r, p=p: put(r, p) for r, p in singles]),
        "put_batch_us_per_record": log.timed(
            f"{layer}.put_batch", [lambda b=b: backend.put_batch(b) for b in batches], per=BATCH
        ),
        "get_records_us_per_record": log.timed(
            f"{layer}.get_records", [lambda: backend.get_records(pnames)] * 5, per=len(pnames)
        ),
        "scan_all_us_per_record": log.timed(
            f"{layer}.scan_all", [backend.scan_all] * 5, per=len(pnames)
        ),
    }
    return times


def storage(kind: str, entries: list, directory: Path, log: SpanLog) -> Dict[str, float]:
    """The backend of the workload's kind, alone: no store, index or closure above it."""
    path = str(directory / "probe-storage.db") if kind == "sqlite" else None
    backend = make_backend(kind, path=path)
    try:
        times = _backend_times(backend, entries, log, "storage")
    finally:
        backend.close()
    return {f"storage.{name}": value for name, value in times.items()}


def sharded(entries: list, directory: Path, log: SpanLog) -> Dict[str, float]:
    """``shards=4`` against ``shards=1`` on identical sqlite batches (base: one shard)."""
    times = {}
    skew = 0.0
    for shards in (1, SHARDS):
        backend = make_backend("sqlite", path=str(directory / f"probe-shards{shards}.db"), shards=shards)
        try:
            times[shards] = _backend_times(backend, entries, log, f"storage.sharded{shards}")
            if shards > 1:
                per_shard = [block["records"] for block in backend.storage_stats()["per_shard"]]
                skew = max(per_shard) / (sum(per_shard) / len(per_shard))
        finally:
            backend.close()
    one, many = times[1], times[SHARDS]
    return {
        "storage.sharded.put_batch_ratio": many["put_batch_us_per_record"] / one["put_batch_us_per_record"],
        "storage.sharded.scan_all_ratio": many["scan_all_us_per_record"] / one["scan_all_us_per_record"],
        "storage.sharded.get_records_ratio": many["get_records_us_per_record"] / one["get_records_us_per_record"],
        "storage.sharded.shard_skew": skew,
    }


def stream_matching(inputs, log: SpanLog) -> float:
    """Publish p50 with 16 standing subscriptions minus with none (twin memory:// stores)."""
    sets = inputs.head[:PROBE_CALLS]
    stream = inputs.streams[0]
    medians = []
    for subscriptions in (0, SUBSCRIPTIONS):
        with connect("memory://") as client:
            for rank in range(subscriptions):
                client.subscribe(Q.attr("sensor") == stream.sensor_name(rank), callback=lambda event: None)
            medians.append(
                log.timed(f"stream.publish_{subscriptions}_subscriptions", [lambda ts=ts: client.publish(ts) for ts in sets])
            )
    return medians[1] - medians[0]
