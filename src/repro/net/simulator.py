"""Message-level network facade: traffic accounting + operation capture.

The Section IV criteria the architecture comparison must score --
*speed* and *resource consumption* -- are functions of the messages an
architecture sends: how many, how large, and over what distances.  Every
time an architecture model sends a logical message,
:meth:`NetworkSimulator.send` charges its latency (from the
:class:`~repro.net.topology.Topology`) and records its size, kind and
endpoints.

The simulator is also the *event-emitting facade* of each operation:
while a model operation runs, every ``send`` appends a hop to the
operation's :class:`~repro.sim.trace.OpTrace`, :meth:`broadcast` and
:meth:`parallel` mark fan-out groups, and :meth:`local_compute` marks
processing delays.  That captured trace is the one definition of what
the operation cost: the model layer reads latency (sequential hops add,
a fan-out takes its slowest branch), messages and bytes off it, and the
discrete-event kernel (:mod:`repro.sim`) replays the same trace so
concurrent clients genuinely queue at shared sites.  Nothing composes
per-message latencies by hand.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.topology import Topology
from repro.sim.trace import Compute, Hop, OpTrace, Parallel

__all__ = ["Message", "TrafficStats", "NetworkSimulator"]

#: Most link pairs a TrafficStats tracks individually; beyond this the
#: per-link map stops growing and further *new* links fold into an
#: overflow counter (aggregate message/byte counters are never lossy).
BY_LINK_CAP = 4096

#: Messages the simulator remembers individually before the log is
#: dropped wholesale (aggregate counters keep counting; ``snapshot()``
#: reports the truncation).
LOG_CAP = 100_000


@dataclass(frozen=True)
class Message:
    """One logical message between sites."""

    source: str
    destination: str
    size_bytes: int
    kind: str
    latency_ms: float


@dataclass
class TrafficStats:
    """Aggregated traffic counters, overall and per message kind."""

    messages: int = 0
    bytes: int = 0
    latency_ms_total: float = 0.0
    by_kind: Dict[str, Dict[str, float]] = field(default_factory=dict)
    by_link: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: messages recorded on links beyond the BY_LINK_CAP tracking horizon
    link_overflow_messages: int = 0

    def record(self, message: Message) -> None:
        """Fold one message into the counters."""
        self.messages += 1
        self.bytes += message.size_bytes
        self.latency_ms_total += message.latency_ms
        kind = self.by_kind.setdefault(
            message.kind, {"messages": 0, "bytes": 0, "latency_ms": 0.0}
        )
        kind["messages"] += 1
        kind["bytes"] += message.size_bytes
        kind["latency_ms"] += message.latency_ms
        link = (message.source, message.destination)
        if link in self.by_link:
            self.by_link[link] += 1
        elif len(self.by_link) < BY_LINK_CAP:
            self.by_link[link] = 1
        else:
            self.link_overflow_messages += 1

    def top_links(self, k: int = 10) -> List[Dict[str, object]]:
        """The ``k`` busiest links, most messages first (ties by name)."""
        ranked = sorted(self.by_link.items(), key=lambda item: (-item[1], item[0]))
        return [
            {"source": source, "destination": destination, "messages": count}
            for (source, destination), count in ranked[:k]
        ]

    def snapshot(self) -> dict:
        """Plain-dict summary for reports."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "latency_ms_total": round(self.latency_ms_total, 3),
            "by_kind": {name: dict(values) for name, values in self.by_kind.items()},
            "links": {
                "tracked": len(self.by_link),
                "top": self.top_links(),
                "overflow_messages": self.link_overflow_messages,
            },
        }


class _ParallelHandle:
    """What ``with network.parallel() as par:`` yields.

    Bare sends inside the group each become their own single-hop branch
    (broadcast fan-out); ``with par.branch():`` groups a multi-hop chain
    (request *then* response, per site) into one branch.
    """

    def __init__(self, simulator: "NetworkSimulator", group: Optional[Parallel]) -> None:
        self._simulator = simulator
        self._group = group

    @contextmanager
    def branch(self):
        if self._group is None:  # capture inactive
            yield
            return
        steps: List = []
        self._group.branches.append(steps)
        self._simulator._stack.append(steps)
        try:
            yield
        finally:
            self._simulator._stack.pop()


class NetworkSimulator:
    """Charges latency and bandwidth for logical messages between sites.

    Parameters
    ----------
    topology:
        Supplies per-link latency.

    Partitioned sites are unreachable: sending to or from one raises
    :class:`~repro.errors.NetworkError` (used by the reliability tests
    and by timed :class:`~repro.sim.schedule.Schedule` events).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.stats = TrafficStats()
        self._log: List[Message] = []
        self._log_dropped = 0
        self._partitioned: set = set()
        self._keep_log = True
        # Operation capture (repro.sim): the trace being built, a depth
        # counter for nested operations, and the append-target stack.
        self._trace: Optional[OpTrace] = None
        self._op_depth = 0
        self._stack: List[object] = []
        #: the most recent :class:`~repro.sim.workload.SimReport` run over
        #: this network (set by the workload runner; read by stats()).
        self.last_sim_report = None

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def partition(self, site: str) -> None:
        """Cut a site off from the network."""
        self._partitioned.add(site)

    def heal(self, site: str) -> None:
        """Reconnect a partitioned site."""
        self._partitioned.discard(site)

    def is_partitioned(self, site: str) -> bool:
        """True when the site is currently cut off."""
        return site in self._partitioned

    # ------------------------------------------------------------------
    # Operation capture
    # ------------------------------------------------------------------
    def begin_operation(self, kind: str, origin: str) -> Optional[OpTrace]:
        """Start capturing one operation's message structure.

        Re-entrant: a nested begin (a model operation invoking another)
        keeps appending to the outer trace and returns ``None``.
        """
        self._op_depth += 1
        if self._op_depth > 1:
            return None
        self._trace = OpTrace(kind=kind, origin=origin)
        self._stack = [self._trace.steps]
        return self._trace

    def end_operation(self) -> Optional[OpTrace]:
        """Finish the current capture; returns the trace at the outermost exit."""
        self._op_depth -= 1
        if self._op_depth > 0:
            return None
        self._op_depth = max(0, self._op_depth)
        trace, self._trace = self._trace, None
        self._stack = []
        return trace

    def _record_step(self, step) -> None:
        if self._trace is None:
            return
        top = self._stack[-1]
        if isinstance(top, Parallel):
            # A bare send inside parallel(): its own single-hop branch.
            top.branches.append([step])
        else:
            top.append(step)

    @contextmanager
    def parallel(self):
        """Mark a fan-out: everything sent inside starts together.

        The operation's clock advances to the *slowest* branch -- in the
        trace's closed-form latency and under kernel replay alike.
        """
        if self._trace is None:
            yield _ParallelHandle(self, None)
            return
        group = Parallel()
        self._record_step(group)
        self._stack.append(group)
        try:
            yield _ParallelHandle(self, group)
        finally:
            self._stack.pop()

    def local_compute(self, ms: float, site: str = "") -> float:
        """Record a processing delay on the operation's critical path.

        The delay is part of the captured trace, so it counts towards
        the operation's latency without the caller adding anything up;
        during kernel replay a ``site``-bound compute also occupies that
        site's server (concurrent operations queue behind it).  Returns
        ``ms`` unchanged, as a convenience.
        """
        if ms > 0:
            self._record_step(Compute(ms, site))
        return ms

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        source: str,
        destination: str,
        size_bytes: int,
        kind: str,
        background: bool = False,
    ) -> Message:
        """Send one logical message and return it (with its charged latency).

        ``background=True`` marks asynchronous hops (subscription
        notifications): they are captured and replayed -- and do load
        the destination's server -- but the operation does not wait for
        them: they count towards its messages and bytes, never its
        latency.
        """
        if size_bytes < 0:
            raise NetworkError("message size must be non-negative")
        if source in self._partitioned or destination in self._partitioned:
            raise NetworkError(
                f"cannot deliver {kind!r} message: "
                f"{source!r} or {destination!r} is partitioned"
            )
        latency = self.topology.latency_ms(source, destination)
        message = Message(source, destination, size_bytes, kind, latency)
        self.stats.record(message)
        self._record_step(
            Hop(source, destination, size_bytes, kind, latency, critical=not background)
        )
        if self._keep_log:
            self._log.append(message)
            if len(self._log) > LOG_CAP:
                # Benchmarks can generate millions of messages; keep the
                # aggregate counters but stop remembering individual
                # ones -- visibly: snapshot() reports the truncation.
                self._keep_log = False
                self._log_dropped += len(self._log)
                self._log.clear()
        else:
            self._log_dropped += 1
        return message

    def broadcast(self, source: str, destinations: List[str], size_bytes: int, kind: str) -> float:
        """Send the same message to several sites; return the slowest latency.

        The architectures use this for fan-out steps (ask every site,
        wait for all answers): the copies are one parallel group of the
        trace, so the operation waits for the slowest while bandwidth is
        charged per copy.  The returned maximum is informational; cost
        is read off the trace.
        """
        slowest = 0.0
        with self.parallel():
            for destination in destinations:
                message = self.send(source, destination, size_bytes, kind)
                slowest = max(slowest, message.latency_ms)
        return slowest

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def log(self) -> List[Message]:
        """Individual messages recorded so far (may be truncated for huge runs)."""
        return list(self._log)

    def log_truncated(self) -> bool:
        """True once the per-message log overflowed and was dropped."""
        return not self._keep_log

    def log_dropped(self) -> int:
        """Messages not retained in the log (0 until truncation)."""
        return self._log_dropped

    def snapshot(self) -> dict:
        """Traffic counters plus log-retention facts (one-stop report dict)."""
        facts = self.stats.snapshot()
        facts["log"] = {
            "kept": len(self._log),
            "truncated": self.log_truncated(),
            "dropped": self._log_dropped,
        }
        return facts

    def reset(self) -> None:
        """Clear counters and the message log (benchmarks call this between phases)."""
        self.stats = TrafficStats()
        self._log.clear()
        self._log_dropped = 0
        self._keep_log = True

    def messages_between(self, source: str, destination: str) -> int:
        """How many messages went from ``source`` to ``destination``.

        Only the ``BY_LINK_CAP`` first-seen links are tracked
        individually; an untracked link reports 0 even though its
        messages are in the aggregate counters.
        """
        return self.stats.by_link.get((source, destination), 0)
