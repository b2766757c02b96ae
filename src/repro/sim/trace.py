"""Structural traces of one distributed operation's message exchanges.

Every architecture-model operation (publish, query, closure, locate) is
a composition of message hops: sequential chains ("ask, then fetch each
candidate"), parallel fan-outs ("scatter to every partition, wait for
the slowest"), and local compute delays ("index the record at the
warehouse").  The :class:`~repro.net.simulator.NetworkSimulator` captures
that structure as an :class:`OpTrace` while the model runs, and the
discrete-event kernel (:mod:`repro.sim.kernel`) replays it in virtual
time, where hops contend for per-site servers with other in-flight
operations.

The trace is also the one definition of what the operation cost:
:func:`trace_elapsed_ms` is its latency in closed form, the hop count
its messages, the hop sizes its bytes -- the model layer fills every
:class:`~repro.distributed.base.OperationResult` from them.  Replaying a
trace through a *degenerate* kernel (no service time, no jitter, no
contention) yields precisely that closed form; the parity tests pin the
equality for every model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

__all__ = ["Hop", "Compute", "Parallel", "Step", "OpTrace", "trace_elapsed_ms"]


@dataclass(frozen=True)
class Hop:
    """One message: ``source`` -> ``destination``, with its base latency.

    ``base_latency_ms`` is the topology's propagation latency (the value
    the closed form adds up); the kernel adds seeded jitter and
    destination-server queueing on top.  ``critical=False`` marks
    asynchronous hops (subscription notifications): they are scheduled
    and load the destination server, but the operation does not wait for
    them.
    """

    source: str
    destination: str
    size_bytes: int
    kind: str
    base_latency_ms: float
    critical: bool = True


@dataclass(frozen=True)
class Compute:
    """A local processing delay (indexing, mediator translation).

    When ``site`` is given the work occupies that site's server in the
    kernel -- concurrent operations queue behind it; a site-less compute
    is pure pipeline delay (it waits but occupies nobody).
    """

    ms: float
    site: str = ""


@dataclass
class Parallel:
    """A fan-out: every branch starts together; the group ends with the slowest.

    Each branch is itself a sequential list of steps, so "request then
    response, in parallel across sites" is a branch of two hops.
    """

    branches: List[List["Step"]] = field(default_factory=list)


Step = Union[Hop, Compute, Parallel]


@dataclass
class OpTrace:
    """The captured structure of one operation."""

    kind: str
    origin: str
    steps: List[Step] = field(default_factory=list)

    def hops(self) -> List[Hop]:
        """Every hop in the trace, critical and background alike."""
        found: List[Hop] = []
        _collect_hops(self.steps, found)
        return found


def _collect_hops(steps: List[Step], out: List[Hop]) -> None:
    for step in steps:
        if isinstance(step, Hop):
            out.append(step)
        elif isinstance(step, Parallel):
            for branch in step.branches:
                _collect_hops(branch, out)


def trace_elapsed_ms(steps: List[Step]) -> float:
    """The degenerate (no-queueing, no-jitter) elapsed time of a step list.

    Sequential steps add, parallel groups take the slowest branch, and
    non-critical hops contribute nothing.  This is the latency every
    architecture-model operation reports, and the parity tests' oracle
    for kernel replay.  (Plain ``+=``, never ``sum()``: Python 3.12's
    ``sum`` compensates float addition, and the figure must not depend
    on the interpreter version.)
    """
    elapsed = 0.0
    for step in steps:
        if isinstance(step, Hop):
            if step.critical:
                elapsed += step.base_latency_ms
        elif isinstance(step, Compute):
            elapsed += step.ms
        elif isinstance(step, Parallel):
            slowest = 0.0
            for branch in step.branches:
                slowest = max(slowest, trace_elapsed_ms(branch))
            elapsed += slowest
    return elapsed
