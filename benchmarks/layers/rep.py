"""One repetition of one workload, on fresh stores, in a process of its own.

``run.py`` starts this file once per repetition and reads the JSON object
it prints last.  An untraced repetition sets up, drives the workload's
main sections through the public ``connect()`` façade, then the coverage
sections (the op kinds the main mix lacks) and the durability section,
verifies, and reports every end-to-end metric.  A traced repetition
drives the same op sequence on twin stores one boundary down at a time,
records a span per call, probes the leaf layers and reports the per-layer
table (see README.md).

A section's ops are generated a chunk at a time, outside the timers, and
each chunk is then driven closed-loop: generator time is in no latency
and in no ``ops_per_s``, and the process never holds more inputs than one
chunk.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import bootstrap

from repro import PassStore, connect
from repro.api.dsl import as_query
from repro.api.results import Result
from repro.storage.factory import make_backend

import probes
from metrics import RESTORE_MODES, RUN_SECONDS, host_slowdown, p99_of_fifths
from workload import (
    BATCH,
    DERIVED,
    KIND_OF,
    LINEAGE_KINDS,
    PAGE,
    PUBLISH,
    PUBLISH_MANY,
    QUERY,
    QUERY_KINDS,
    Op,
    Stream,
    answer_matches,
)

# ----------------------------------------------------------------------
# Every size in the benchmark, at scale 1.0 (``--seconds RUN_SECONDS``).
# Counts are constants, never derived from elapsed time, so they repeat
# exactly.  ``preload`` is in batches of BATCH sets, sections are in
# rounds of their mix (``ROUNDS``); they were sized so that one run's
# timed sections total about RUN_SECONDS on the reference host and a
# run ends within 25 s there (35 s in the host's slow spells).
# ----------------------------------------------------------------------
#: repetitions of an untraced run, whose median is reported.  The socket
#: workload gets five shorter ones: its latencies follow the host's spells
#: (tens of seconds) more closely than the calibration kernel can undo.
REPETITIONS = {"ingest_durable": 3, "query_local": 3, "lineage_churn": 3, "service_mixed": 5}
SIZES = {
    # sqlite:///, 1 client: single publishes, then batches of BATCH
    "ingest_durable": {
        "chains": 16, "preload": 5, "links_per_batch": 12,
        "main": (("publish", 1200), ("publish_many", 50)),
        "coverage": (("query", 800), ("lineage", 1000)),
    },
    # memory://, 1 client: queries only, over a preloaded store
    "query_local": {
        "chains": 16, "preload": 70, "links_per_batch": 4,
        "main": (("query", 8000),),
        "coverage": (("publish", 1500), ("publish_many", 40), ("lineage", 1000)),
    },
    # memory://, 1 client: 1 DAG-extending publish per 4 lineage reads
    "lineage_churn": {
        "chains": 16, "preload": 70, "links_per_batch": 20,
        "main": (("churn", 4000),),
        "coverage": (("query", 1600), ("publish_many", 40)),
    },
    # pass:// daemon child, 2 connections (sizes are per connection)
    "service_mixed": {
        "chains": 8, "preload": 10, "links_per_batch": 8,
        "main": (("mixed", 800),),
        "coverage": (("publish_many", 20),),
    },
}
CONNECTIONS = {"service_mixed": 2}
#: sets of the preload copied into the sqlite:/// twin that a
#: memory-backed workload reopens and weighs
TWIN_SETS = 5 * BATCH
#: reopen cycles of the workload's own durable store, and of the (small) twin
REOPEN_CYCLES = 3
TWIN_REOPEN_CYCLES = 9
ORACLE_QUERIES = 20
#: fewest periods of its mix a section runs, at any scale
MIN_PERIODS = 2
#: a traced repetition drives each of its passes at this share of the counts
TRACE_SHARE = 0.5
#: a traced pass keeps one ``(op, answer)`` in this many for the codec and planner probes
KEEP_EVERY = 5

#: query_local's fixed mix of 20: 40 % ``sensor ==`` (half hot, half
#: cold), 20 % ``sequence`` range, 15 % time window, 5 % ``Q.near``,
#: 20 % conjunction + ``order_by``
QUERY_MIX = (
    "eq_hot", "range", "eq_cold", "conj", "window", "eq_hot", "range", "eq_cold", "conj", "window",
    "eq_hot", "range", "eq_cold", "conj", "window", "eq_hot", "range", "eq_cold", "conj", "near",
)
#: service_mixed's round of 10: 5 publishes, 3 queries (eq / range), 2 lineage reads
SERVICE_MIX = (
    "publish", "eq_cold", "publish", "range", "publish",
    "eq_hot", "publish", "ancestors_aggregate", "publish_chain", "descendants_raw",
)


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, round(count * scale))


# ----------------------------------------------------------------------
# Sections: what one round of each kind issues
# ----------------------------------------------------------------------
def _publish_round(stream: Stream, index: int) -> List[Op]:
    return [stream.publish_op(), stream.publish_op(chain=index % 4 == 3)]


def _publish_many_round(stream: Stream, index: int) -> List[Op]:
    return [stream.publish_many_op(BATCH, BATCH // 8)]


def _query_round(stream: Stream, index: int) -> List[Op]:
    return [stream.query_op(QUERY_MIX[index % len(QUERY_MIX)])]


def _lineage_round(stream: Stream, index: int) -> List[Op]:
    return [stream.lineage_op(kind) for kind in LINEAGE_KINDS]


def _churn_round(stream: Stream, index: int) -> List[Op]:
    return [stream.publish_op(chain=index % 4 == 3)] + [stream.lineage_op(kind) for kind in LINEAGE_KINDS]


def _mixed_round(stream: Stream, index: int) -> List[Op]:
    kind = SERVICE_MIX[index % len(SERVICE_MIX)]
    if kind.startswith("publish"):
        return [stream.publish_op(chain=kind == "publish_chain")]
    if kind in LINEAGE_KINDS:
        return [stream.lineage_op(kind)]
    return [stream.query_op(kind)]


#: section kind -> (its round maker, the period of its mix in rounds, rounds per chunk)
ROUNDS: Dict[str, tuple] = {
    "publish": (_publish_round, 4, 200),
    "publish_many": (_publish_many_round, 1, 5),
    "query": (_query_round, len(QUERY_MIX), 500),
    "lineage": (_lineage_round, 1, 100),
    "churn": (_churn_round, 4, 200),
    "mixed": (_mixed_round, len(SERVICE_MIX), 500),
}


class Inputs:
    """The generators of one pass, one :class:`Stream` per connection.

    Every pass of a repetition builds its own from the same seed and asks
    for the same things in the same order (preload, warm-up, main,
    coverage, oracle queries), so every pass is handed the same inputs.
    """

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.sizes = sizes = SIZES[workload]
        self.scale = scale
        self.streams = [Stream(seed, index, chains=sizes["chains"]) for index in range(CONNECTIONS.get(workload, 1))]
        #: the head of connection 0's preload: the twin's and the probes' sets
        self.head: list = []

    def preload_batches(self):
        """``(connection, batch)`` in publishing order.  Reads pick their
        subjects from what is already published, so even the smallest
        scale preloads enough for aggregates and chain tails."""
        batches = scaled(self.sizes["preload"], self.scale, floor=4)
        for index, stream in enumerate(self.streams):
            for _ in range(batches):
                batch = stream.sets(BATCH, self.sizes["links_per_batch"])
                if index == 0 and len(self.head) < TWIN_SETS:
                    self.head.extend(batch)
                yield index, batch

    def warmup(self) -> List[List[Op]]:
        """One period of every section kind, per connection: lazy imports,
        plan shapes and the codec are hot before timing."""
        kinds = [kind for kind, _ in self.sizes["main"] + self.sizes["coverage"]]
        return [
            [op for kind in kinds for index in range(ROUNDS[kind][1]) for op in ROUNDS[kind][0](stream, index)]
            for stream in self.streams
        ]

    def sections(self, group: str):
        """``(kind, rounds, streams)`` of the ``main`` or ``coverage`` sections."""
        streams = self.streams if group == "main" else self.streams[:1]
        for kind, rounds in self.sizes[group]:
            period = ROUNDS[kind][1]
            rounds = scaled(rounds, self.scale, MIN_PERIODS * period)
            yield kind, rounds - rounds % period, streams

    def oracle_ops(self) -> List[List[Op]]:
        """The end-of-run reads, all verified; two connections see each
        other's sets in windows, places and conjunctions, so theirs stay
        with the kinds that name a sensor or a sequence."""
        kinds = ("eq_cold", "range", "eq_hot") if len(self.streams) > 1 else QUERY_KINDS
        share = ORACLE_QUERIES // len(self.streams)
        return [stream.oracle_queries(share, kinds) for stream in self.streams]


# ----------------------------------------------------------------------
# Targets: an open store at one level, and how each op is called on it
# ----------------------------------------------------------------------
def facade_calls(client) -> tuple:
    """Op code -> the public façade call that serves it."""

    def query(q):
        return client.query(q, limit=PAGE)

    return (
        client.publish,
        client.publish_many,
        query,
        lambda pname: client.ancestors(pname, limit=PAGE),
        lambda pname: client.descendants(pname, limit=PAGE),
        query,
    )


def store_calls(store: PassStore) -> tuple:
    """Op code -> the ``PassStore`` method the local façade delegates to."""
    return (
        store.ingest,
        store.ingest_many,
        store.query_explain,
        store.ancestors,
        store.descendants,
        store.query_explain,
    )


def lowered(ops: Sequence[Op]) -> List[Op]:
    """The ops as ``PassStore`` takes them: queries already ``Query`` objects.

    Expectations are dropped: the store's methods do not answer in
    ``Result`` objects, and only the façade passes are verified.
    """
    return [Op(op.code, as_query(op.arg) if op.code in (QUERY, DERIVED) else op.arg) for op in ops]


class DaemonProcess:
    """A ``PassDaemon`` child process; the port comes back over its stdout pipe."""

    def __init__(self, obs_trace: bool = False) -> None:
        command = [sys.executable, str(bootstrap.HERE / "daemon_child.py")]
        if obs_trace:
            command.append("--obs-trace")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._reply()["port"]
        except Exception:
            self.stop()
            raise

    def _ask(self, command: str):
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._reply()

    def _reply(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the daemon child exited without answering")
        return json.loads(line)

    def usage(self) -> dict:
        """``{"cpu_s", "rss_kb"}`` of the child so far."""
        return self._ask("usage")

    def stop(self) -> Optional[dict]:
        """Shut the child down and wait for it; returns its final usage."""
        final = None
        try:
            if self.process.poll() is None:
                final = self._ask("stop")
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
        return final


class Target:
    """Fresh stores for one pass of a workload at one level.

    ``level`` is ``"target"`` (the workload's own ``connect()`` URL),
    ``"client"`` (the in-process façade twin of a ``pass://`` target) or
    ``"store"`` (a bare ``PassStore`` twin).
    """

    def __init__(self, workload: str, level: str, directory: Path, obs_trace: bool = False) -> None:
        self.level = level
        self.daemon: Optional[DaemonProcess] = None
        self.clients: list = []
        self.store: Optional[PassStore] = None
        self.url = "memory://"
        durable = workload == "ingest_durable"
        self.backend_kind = "sqlite" if durable else "memory"
        self.path = directory / f"{level}-{len(os.listdir(directory))}.db" if durable else None
        if level == "store":
            self.store = PassStore(backend=make_backend(self.backend_kind, path=self.path and str(self.path)))
            self.calls = [store_calls(self.store)]
            return
        if durable:
            self.url = f"sqlite:///{self.path}"
        if workload == "service_mixed" and level == "target":
            self.daemon = DaemonProcess(obs_trace)
            self.url = f"pass://127.0.0.1:{self.daemon.port}"
        connections = CONNECTIONS.get(workload, 1) if level == "target" else 1
        try:
            for _ in range(connections):
                self.clients.append(connect(self.url))
        except Exception:
            self.close()
            raise
        self.calls = [facade_calls(client) for client in self.clients]

    def stats(self) -> dict:
        return self.clients[0].stats()

    def adopt(self, client) -> None:
        """Carry on with a reopened client (local targets only)."""
        self.clients = [client]
        self.calls = [facade_calls(client)]

    def close(self) -> Optional[dict]:
        """Close clients and stop the daemon child; returns its final usage."""
        for client in self.clients:
            try:
                client.close()
            except Exception:  # a dead connection must not keep the child alive
                pass
        self.clients = []
        if self.store is not None:
            self.store.backend.close()
            self.store = None
        daemon, self.daemon = self.daemon, None
        return daemon.stop() if daemon is not None else None


# ----------------------------------------------------------------------
# Driving and timing
# ----------------------------------------------------------------------
def drive(calls: tuple, ops: Sequence[Op]) -> List[tuple]:
    """One closed-loop client: the next call starts when the last one has
    answered.  Returns ``(start_ns, end_ns, answer or exception)`` per op."""
    now = time.perf_counter_ns
    done = []
    for op in ops:
        call = calls[op.code]
        started = now()
        try:
            out = call(op.arg)
        except Exception as error:  # an op that raises is a failed op
            out = error
        done.append((started, now(), out))
    return done


def drive_all(tables: Sequence[tuple], op_lists: Sequence[Sequence[Op]]) -> Tuple[int, List[List[tuple]]]:
    """Drive each op list on its own call table, one thread per list when
    there are several; returns the wall time and what :func:`drive` did."""
    done: List[List[tuple]] = [[] for _ in op_lists]
    started = time.perf_counter_ns()
    if len(op_lists) == 1:
        done[0] = drive(tables[0], op_lists[0])
    else:

        def client(index: int) -> None:
            done[index] = drive(tables[index], op_lists[index])

        threads = [threading.Thread(target=client, args=(index,)) for index in range(len(op_lists))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return time.perf_counter_ns() - started, done


class Section:
    """What one timed section did, summed over its chunks."""

    def __init__(self, kind: str, traced: bool) -> None:
        self.kind = kind
        self.ops = 0
        self.failed = 0
        #: wall time of the driven chunks, each divided by the host's slowdown beside it
        self.wall_ns = 0.0
        self.slowdowns: List[float] = []
        self.cpu_s = 0.0
        self.gen2 = 0
        #: metric family -> reference-host microseconds per op in issue order;
        #: a batch counts per tuple set
        self.micros: Dict[str, List[float]] = {"publish": [], "publish_many": [], "query": [], "lineage": []}
        self.rows_returned = 0
        self.sets_published = 0
        #: traced passes only: ``(code, start_ns, end_ns, op id)`` per op,
        #: and one ``(op, answer)`` in KEEP_EVERY for the probes
        self.spans: Optional[list] = [] if traced else None
        self.answered: List[tuple] = []

    def absorb(
        self, ops: Sequence[Op], done: Sequence[tuple], ids: Sequence[str], slowdown: float, verify: bool
    ) -> None:
        """Account for one driven op list; sampled answers are checked here,
        after the chunk's timed part."""
        self.ops += len(ops)
        per_micro = 1000.0 * slowdown
        for position, (op, (started, ended, out)) in enumerate(zip(ops, done)):
            micros = (ended - started) / per_micro
            if isinstance(out, Exception):
                self.failed += 1
            elif verify and op.expected is not None and not answer_matches(op, out):
                self.failed += 1
            if op.code == PUBLISH_MANY:
                micros /= len(op.arg)
                self.sets_published += len(op.arg)
            elif op.code == PUBLISH:
                self.sets_published += 1
            elif isinstance(out, Result) and op.code in (QUERY, DERIVED):
                self.rows_returned += out.total
            self.micros[KIND_OF[op.code]].append(micros)
            if self.spans is not None:
                self.spans.append((op.code, started, ended, ids[position]))
                if position % KEEP_EVERY == 0:
                    self.answered.append((op, out))


def run_section(target: Target, index: int, kind: str, rounds: int, streams: List[Stream], traced: bool) -> Section:
    """Generate and drive one section chunk by chunk.  A single-client twin
    takes the connections' ops interleaved, a bare store takes lowered
    queries; an op keeps its id (``section/connection/number``) at every level."""
    maker, _, chunk_rounds = ROUNDS[kind]
    section = Section(kind, traced)
    issued = 0
    gc.collect()
    for begin in range(0, rounds, chunk_rounds):
        end = min(rounds, begin + chunk_rounds)
        op_lists = [[op for number in range(begin, end) for op in maker(stream, number)] for stream in streams]
        size = len(op_lists[0])
        id_lists = [[f"{index}/{connection}/{issued + number}" for number in range(size)] for connection in range(len(streams))]
        issued += size
        if len(target.calls) == 1 and len(op_lists) > 1:
            op_lists = [[op for group in zip(*op_lists) for op in group]]
            id_lists = [[op_id for group in zip(*id_lists) for op_id in group]]
        if target.level == "store":
            op_lists = [lowered(ops) for ops in op_lists]
        slowdown = host_slowdown()
        cpu, gen2 = time.process_time(), gc.get_stats()[2]["collections"]
        wall, done = drive_all(target.calls, op_lists)
        section.cpu_s += time.process_time() - cpu
        section.gen2 += gc.get_stats()[2]["collections"] - gen2
        slowdown = (slowdown + host_slowdown()) / 2.0
        section.slowdowns.append(slowdown)
        section.wall_ns += wall / slowdown
        for ops, results, ids in zip(op_lists, done, id_lists):
            section.absorb(ops, results, ids, slowdown, verify=target.level != "store")
    return section


def merged_micros(sections: Sequence[Section]) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {"publish": [], "publish_many": [], "query": [], "lineage": []}
    for section in sections:
        for kind, samples in section.micros.items():
            merged[kind].extend(samples)
    return merged


def p50s(sections: Sequence[Section]) -> Dict[str, float]:
    return {kind: statistics.median(samples) if samples else 0.0 for kind, samples in merged_micros(sections).items()}


def host_slowdown_of(sections: Sequence[Section]) -> float:
    """The median slowdown the sections' timings were divided by."""
    return statistics.median(slowdown for section in sections for slowdown in section.slowdowns)


def tails(sections: Sequence[Section]) -> Dict[str, float]:
    """The ``tail.*`` rows: too unsteady on this host to carry a bound."""
    micros = merged_micros(sections)
    return {f"tail.{kind}_p99_us": p99_of_fifths(micros[kind]) for kind in ("publish", "query", "lineage")}


def ops_per_s(sections: Sequence[Section]) -> float:
    return sum(section.ops for section in sections) / (sum(section.wall_ns for section in sections) / 1e9)


# ----------------------------------------------------------------------
# The phases of a pass
# ----------------------------------------------------------------------
def preload(target: Target, inputs: Inputs) -> float:
    """Publish the preload in batches, then warm every op kind up; returns
    the median host slowdown read along the way."""
    slowdowns = [host_slowdown()]
    for index, batch in inputs.preload_batches():
        target.calls[index % len(target.calls)][PUBLISH_MANY](batch)
        slowdowns.append(host_slowdown())
    for index, ops in enumerate(inputs.warmup()):
        if target.level == "store":
            ops = lowered(ops)
        failed = sum(1 for _, _, out in drive(target.calls[index % len(target.calls)], ops) if isinstance(out, Exception))
        if failed:
            raise RuntimeError(f"{failed} warm-up ops failed on {target.url}")
    slowdowns.append(host_slowdown())
    return statistics.median(slowdowns)


def run_pass(target: Target, inputs: Inputs, traced: bool = False) -> Tuple[List[Section], List[Section]]:
    """Main sections, then coverage sections, on a preloaded target."""
    groups = []
    number = 0
    for group in ("main", "coverage"):
        sections = []
        for kind, rounds, streams in inputs.sections(group):
            sections.append(run_section(target, number, kind, rounds, streams, traced))
            number += 1
        groups.append(sections)
    return groups[0], groups[1]


def reopen(client, url: str, probe_query, cycles: int) -> tuple:
    """``close()`` then ``connect()`` until the first query answers, ``cycles``
    times; returns the open client and the seconds each cycle took."""
    seconds = []
    slowdown = host_slowdown()
    for _ in range(cycles):
        started = time.perf_counter()
        client.close()
        client = connect(url)
        client.query(probe_query, limit=PAGE)
        elapsed = time.perf_counter() - started
        before, slowdown = slowdown, host_slowdown()
        seconds.append(elapsed / ((before + slowdown) / 2.0))
    return client, seconds


def unreadable(client, acknowledged: Sequence[str]) -> int:
    """How many acknowledged PNames the (reopened) store cannot read back."""
    stored = {pname.digest for pname in client.query().records}
    return sum(1 for digest in acknowledged if digest not in stored)


def close_and_weigh(client, path: Path) -> Dict[str, int]:
    """Close a sqlite:/// store; the bytes of its files, and of its WAL just before."""
    wal = Path(str(path) + "-wal")
    wal_bytes = wal.stat().st_size if wal.exists() else 0
    client.close()
    stored = sum(entry.stat().st_size for entry in path.parent.iterdir() if entry.name.startswith(path.name))
    return {"file_bytes": stored, "wal_bytes_at_close": wal_bytes}


# ----------------------------------------------------------------------
# The two kinds of repetition
# ----------------------------------------------------------------------
def untraced_repetition(
    workload: str, seed: int, scale: float, directory: Path, started: float, corrupt: bool = False
) -> dict:
    """``started`` is the ``time.time()`` at which set-up began."""
    target = Target(workload, "target", directory)
    try:
        inputs = Inputs(workload, seed, scale)
        slowdown = preload(target, inputs)
        setup_s = (time.time() - started) / slowdown

        main, coverage = run_pass(target, inputs)
        sections = main + coverage
        failed = sum(section.failed for section in sections)
        attempted = sum(section.ops for section in sections)

        # durability: the workload's own store when it is durable, else a
        # sqlite:/// twin holding the head of the preload
        stream = inputs.streams[0]
        probe_query = stream.query_op("eq_cold", check=False).arg
        if workload == "ingest_durable":
            durable, path, url, cycles = target.clients[0], target.path, target.url, REOPEN_CYCLES
            acknowledged = stream.acknowledged
        else:
            path, cycles = directory / "twin.db", TWIN_REOPEN_CYCLES
            url = f"sqlite:///{path}"
            durable = connect(url)
            for begin in range(0, len(inputs.head), BATCH):
                durable.publish_many(inputs.head[begin : begin + BATCH])
            acknowledged = [tuple_set.pname.digest for tuple_set in inputs.head]
        try:
            durable, reopen_seconds = reopen(durable, url, probe_query, cycles)
            if workload == "ingest_durable":
                target.adopt(durable)
            # every acknowledged PName must be readable after the reopen
            failed += unreadable(durable, acknowledged)
            attempted += len(acknowledged)

            oracle_ops = inputs.oracle_ops()
            if corrupt:
                # the smoke test's proof that a wrong answer would be counted
                total, members = oracle_ops[0][0].expected
                oracle_ops[0][0] = oracle_ops[0][0]._replace(expected=(total + 1, members))
            for calls, ops in zip(target.calls, oracle_ops):
                answers = [out for _, _, out in drive(calls, ops)]
                failed += sum(
                    1 for op, out in zip(ops, answers) if isinstance(out, Exception) or not answer_matches(op, out)
                )
                attempted += len(ops)
            weighed = close_and_weigh(durable, path)
        finally:
            durable.close()
        user_bytes = stream.oracle.user_bytes(acknowledged)
    finally:
        daemon_usage = target.close()

    micros = merged_micros(sections)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if daemon_usage is not None:
        peak_kb += daemon_usage["rss_kb"]
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(main),
        "publish_many_per_set_p50_us": statistics.median(micros["publish_many"]),
        "reopen_s": statistics.median(reopen_seconds),
        "bytes_stored_per_user_byte": weighed["file_bytes"] / user_bytes,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    for kind in ("publish", "query", "lineage"):
        values[f"{kind}_p50_us"] = statistics.median(micros[kind])
    values.update(tails(sections))
    return {
        "values": values,
        "samples": {kind: len(samples) for kind, samples in micros.items()},
        "attempted": attempted,
        "failed": failed,
        "flush_policy": "journal_mode=WAL, synchronous=NORMAL (as shipped)",
        "host_slowdown": host_slowdown_of(sections),
    }


def traced_repetition(workload: str, seed: int, scale: float, directory: Path) -> dict:
    """Twin replay: the same op sequence at each boundary, one span per call."""
    scale *= TRACE_SHARE
    remote = workload == "service_mixed"
    log = probes.SpanLog()
    values: Dict[str, float] = {}
    labels: Dict[str, str] = {}

    def one_pass(level: str, traced: bool, obs_trace: bool = False):
        target = Target(workload, level, directory, obs_trace)
        try:
            inputs = Inputs(workload, seed, scale)
            preload(target, inputs)
            before = target.stats() if level == "target" else {}
            usage = target.daemon.usage() if target.daemon is not None else None
            main, coverage = run_pass(target, inputs, traced)
            daemon_cpu_s = target.daemon.usage()["cpu_s"] - usage["cpu_s"] if usage is not None else 0.0
            return target, inputs, main, coverage, before, daemon_cpu_s
        except Exception:
            target.close()
            raise

    # 1. the target with no spans: the base of both overhead ratios
    plain_target, _, plain, plain_coverage, before, _ = one_pass("target", traced=False)
    try:
        plain_counts = probes.counters(before, plain_target.stats(), plain + plain_coverage)
    finally:
        plain_target.close()
    values.update(tails(plain + plain_coverage))

    # 2. the target again, a span around every call
    target, inputs, main, coverage, before, daemon_cpu_s = one_pass("target", traced=True)
    try:
        spanned = main + coverage
        failed = sum(section.failed for section in spanned)
        attempted = sum(section.ops for section in spanned)
        main_ops = sum(section.ops for section in main)
        values["harness.span_overhead_ratio"] = ops_per_s(main) / ops_per_s(plain)
        values["proc.cpu_us_per_op"] = sum(section.cpu_s for section in main) / main_ops * 1e6
        values["proc.gc_gen2_collections"] = sum(section.gen2 for section in main)
        values["host.slowdown"] = host_slowdown_of(spanned)
        outer = log.add_sections("server.remote" if remote else "api.client", spanned, parent=None)
        outer_p50s = p50s(spanned)
        counts = probes.counters(before, target.stats(), spanned)
        values.update(counts)
        # passes 1 and 2 fed fresh stores the same inputs: their counts must agree exactly
        counts_repeat = {name: [plain_counts[name], counts[name]] for name in probes.REPEATING_COUNTS}
        if remote:
            values["server.daemon.cpu_us_per_op"] = daemon_cpu_s / sum(section.ops for section in spanned) * 1e6
            values["server.daemon.op_errors"] = probes.daemon_errors(target.clients[0].daemon_metrics())
        if workload == "ingest_durable":
            probe_query = inputs.streams[0].query_op("eq_cold", check=False).arg
            client, _ = reopen(target.clients[0], target.url, probe_query, 1)
            target.adopt(client)
            mode = client.stats()["storage"]["closure_restore"]["mode"]
            values["storage.closure_restore_mode"] = RESTORE_MODES[mode]
            labels["storage.closure_restore_mode"] = mode
            weighed = close_and_weigh(client, target.path)
            values["storage.file_bytes"] = weighed["file_bytes"]
            values["storage.wal_bytes_at_close"] = weighed["wal_bytes_at_close"]
    finally:
        target.close()

    # 3. pass:// only: the run with repro.obs.trace enabled on both sides
    #    of the socket, and the in-process façade twin
    if remote:
        from repro.obs import trace

        trace.enable()
        try:
            obs_target, _, obs_main, _, _, _ = one_pass("target", traced=False, obs_trace=True)
            obs_target.close()
        finally:
            trace.disable()
            trace.clear()
        values["obs.trace_enabled_ratio"] = ops_per_s(obs_main) / ops_per_s(plain)

        client_target, _, client_main, client_coverage, _, _ = one_pass("client", traced=True)
        client_target.close()
        client_sections = client_main + client_coverage
        facade_spans = log.add_sections("api.client", client_sections, parent=outer)
        facade_p50s = p50s(client_sections)
        overheads = {kind: outer_p50s[kind] - facade_p50s[kind] for kind in ("publish", "query", "lineage")}
        for kind, overhead in overheads.items():
            values[f"server.rpc.{kind}_overhead_us"] = overhead
        values.update(probes.codec(client_main[0].answered, log))
        weights = {kind: len(client_main[0].micros[kind]) for kind in overheads}
        mean_overhead = sum(overheads[kind] * weights[kind] for kind in overheads) / sum(weights.values())
        values["server.rpc.self_us"] = mean_overhead - (
            values["server.protocol.encode_us"] + values["server.protocol.decode_us"]
        )
    else:
        facade_p50s, facade_spans = outer_p50s, outer

    # 4. the bare PassStore twin; it stays open for the leaf probes
    store_target, inputs, store_main, store_coverage, _, _ = one_pass("store", traced=True)
    try:
        store_sections = store_main + store_coverage
        log.add_sections("core.pass_store", store_sections, parent=facade_spans)
        store_p50s = p50s(store_sections)
        for kind in ("publish", "query", "lineage"):
            values[f"api.client.{kind}_overhead_us"] = facade_p50s[kind] - store_p50s[kind]
        values["core.pass_store.ingest_us"] = store_p50s["publish"]
        values["core.pass_store.ingest_many_us_per_set"] = store_p50s["publish_many"]
        values["core.pass_store.query_us"] = store_p50s["query"]
        values["core.pass_store.lineage_us"] = store_p50s["lineage"]
        queries = [op.arg for section in store_sections for op, _ in section.answered if op.code in (QUERY, DERIVED)]
        entries = probes.entries(store_target.store, inputs.head)
        values.update(probes.leaves(store_target.store, queries, inputs, log))
        values.update(probes.storage(store_target.backend_kind, entries, directory, log))
        if workload == "ingest_durable":
            values.update(probes.sharded(entries, directory, log))
        values["stream.match_us_per_publish"] = probes.stream_matching(inputs, log)
    finally:
        store_target.close()

    bootstrap.OUT.mkdir(exist_ok=True)
    span_file = bootstrap.OUT / f"spans-{workload}-seed{seed}.json"
    log.dump(span_file, {"workload": workload, "seed": seed, "scale": scale})
    return {
        "values": values,
        "labels": labels,
        "samples": {kind: len(samples) for kind, samples in merged_micros(spanned).items()},
        "attempted": attempted,
        "failed": failed,
        "spans": len(log),
        "counts_repeat": counts_repeat,
        "span_file": str(span_file.relative_to(bootstrap.REPO)),
    }


def repetition(
    workload: str, seed: int, scale: float, traced: bool, corrupt: bool = False, started: Optional[float] = None
) -> dict:
    """Run one repetition in a temporary directory under ``out/`` that is
    removed afterwards.  ``started`` is the ``time.time()`` at which
    set-up began: when ``run.py`` launched this process, or now."""
    if started is None:
        started = time.time()
    bootstrap.OUT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="tmp-", dir=bootstrap.OUT))
    try:
        if traced:
            return traced_repetition(workload, seed, scale, directory)
        return untraced_repetition(workload, seed, scale, directory, started, corrupt)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def die_with_parent() -> None:
    """Ask Linux to kill this process when ``run.py`` dies: a benchmark run
    that is itself killed must leave no repetition running."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def main() -> None:
    die_with_parent()
    spec = json.loads(sys.argv[1])
    result = repetition(
        spec["workload"], spec["seed"], spec["seconds"] / RUN_SECONDS, spec["traced"], started=spec["started"]
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
