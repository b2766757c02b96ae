"""Deterministic discrete-event kernel: virtual clock, event queue, site servers.

The kernel is the concurrency model the message-counting simulator never
had.  It keeps a virtual clock in milliseconds, an ordered event heap,
and one FIFO server per site: every message hop propagates (topology
latency plus optional seeded jitter), then queues at its destination's
server for a configurable service time.  Operations captured as
:class:`~repro.sim.trace.OpTrace` structures are replayed step by step,
so N concurrent clients genuinely interleave at shared sites -- a
centralized warehouse serializes everyone's publishes, a DHT spreads
them across the ring.

Determinism: events are ordered by ``(time, insertion sequence)`` and
the only randomness is a :class:`random.Random` seeded from
:class:`SimConfig`, drawn in event order -- identical seeds replay
byte-identical event journals (:meth:`SimKernel.journal_digest`).

Degenerate mode (the :meth:`SimConfig.degenerate` default: zero service
time, zero jitter) reproduces each trace's closed-form latency -- the
figure the operation itself reports -- exactly; the parity tests assert
that for every architecture model.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sim.trace import Compute, Hop, OpTrace, Parallel

__all__ = ["SimConfig", "SiteServer", "SimKernel"]


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the discrete-event simulation.

    Parameters
    ----------
    seed:
        Seeds the kernel RNG (latency jitter); same seed, same run.
    service_ms_per_message:
        Fixed time a destination server spends on each arriving message.
        This is what makes shared sites queue under concurrency.
    service_ms_per_kb:
        Additional service time per KiB of message payload.
    jitter:
        Propagation latency noise: each hop's latency is multiplied by a
        uniform draw from ``[1 - jitter, 1 + jitter]``.
    journal:
        Record a hash of every processed event so two runs can be
        compared byte-for-byte (small per-event cost).
    """

    seed: int = 0
    service_ms_per_message: float = 0.0
    service_ms_per_kb: float = 0.0
    jitter: float = 0.0
    journal: bool = False

    def __post_init__(self) -> None:
        if self.service_ms_per_message < 0 or self.service_ms_per_kb < 0:
            raise ConfigurationError("service times must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    @classmethod
    def degenerate(cls, seed: int = 0) -> "SimConfig":
        """The parity configuration: kernel replay equals the trace's closed form."""
        return cls(seed=seed)


@dataclass
class SiteServer:
    """One site's FIFO message processor."""

    site: str
    free_at: float = 0.0
    busy_ms: float = 0.0
    served: int = 0
    wait_ms_total: float = 0.0
    max_wait_ms: float = 0.0

    def snapshot(self, horizon_ms: float) -> Dict[str, float]:
        """Utilization and queueing facts over a simulated horizon."""
        return {
            "served": self.served,
            "busy_ms": round(self.busy_ms, 3),
            "utilization": round(self.busy_ms / horizon_ms, 4) if horizon_ms > 0 else 0.0,
            "mean_wait_ms": round(self.wait_ms_total / self.served, 4) if self.served else 0.0,
            "max_wait_ms": round(self.max_wait_ms, 3),
        }


class SimKernel:
    """Virtual clock + ordered event queue + per-site servers.

    Parameters
    ----------
    config:
        Simulation knobs (:class:`SimConfig`); defaults to degenerate.
    is_partitioned:
        Callable consulted at hop departure and delivery time; sharing
        the :class:`~repro.net.simulator.NetworkSimulator`'s partition
        set keeps capture-time and replay-time failure behaviour in one
        place.
    timeseries:
        A :class:`~repro.obs.timeseries.TimeSeriesStore` to sample the
        per-site servers into on the **virtual** clock (virtual ms map
        to store seconds) -- the same store schema a live daemon's
        sampler emits on wall time, so one alert rule set and one
        exposition format cover both.  Sampling happens *between* heap
        pops, never through :meth:`schedule`, so the event journal and
        replay determinism are untouched.
    sample_interval_ms:
        Virtual time between samples; defaults to the store's interval.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        is_partitioned: Optional[Callable[[str], bool]] = None,
        timeseries=None,
        sample_interval_ms: Optional[float] = None,
    ) -> None:
        self.config = config if config is not None else SimConfig()
        self.now = 0.0
        self.rng = random.Random(self.config.seed)
        self.servers: Dict[str, SiteServer] = {}
        self.events_processed = 0
        self.notifications_lost = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._is_partitioned = is_partitioned if is_partitioned is not None else (lambda site: False)
        self._journal = hashlib.sha256() if self.config.journal else None
        self.timeseries = timeseries
        self._tick_hooks: List[Callable[[float], None]] = []
        if timeseries is not None:
            interval = (
                sample_interval_ms
                if sample_interval_ms is not None
                else timeseries.interval_s * 1000.0
            )
            if interval <= 0:
                raise ConfigurationError("sample interval must be positive")
            self.sample_interval_ms: Optional[float] = interval
            self._next_sample_ms: Optional[float] = 0.0
        else:
            self.sample_interval_ms = None
            self._next_sample_ms = None

    # ------------------------------------------------------------------
    # Event queue
    # ------------------------------------------------------------------
    def schedule(self, at: float, callback: Callable[[], None], label: str = "event") -> None:
        """Enqueue ``callback`` to run at virtual time ``at`` (clamped to now)."""
        if at < self.now:
            at = self.now
        heapq.heappush(self._heap, (at, self._seq, label, callback))
        self._seq += 1

    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order until the queue drains (or ``until``)."""
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            at = self._heap[0][0]
            while self._next_sample_ms is not None and self._next_sample_ms <= at:
                self._sample(self._next_sample_ms)
                self._next_sample_ms += self.sample_interval_ms
            at, seq, label, callback = heapq.heappop(self._heap)
            self.now = at
            self.events_processed += 1
            if self._journal is not None:
                self._journal.update(f"{at:.9f}|{seq}|{label}\n".encode("utf-8"))
            callback()

    def pending(self) -> int:
        """Events still queued."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Time-series sampling (virtual-clock mirror of the daemon sampler)
    # ------------------------------------------------------------------
    def add_tick_hook(self, hook: Callable[[float], None]) -> None:
        """Run ``hook(t_ms)`` on every sample tick (workload-level series)."""
        self._tick_hooks.append(hook)

    def _sample(self, t_ms: float) -> None:
        """One sample tick at virtual ``t_ms`` (store times are seconds)."""
        t = t_ms / 1000.0
        store = self.timeseries
        if store is not None:
            store.observe_counter("kernel.events", t, self.events_processed)
            for site, server in self.servers.items():
                prefix = f"site.{site}."
                store.observe_gauge(
                    prefix + "backlog_ms", t, max(0.0, server.free_at - t_ms)
                )
                store.observe_counter(prefix + "served", t, server.served)
                store.observe_counter(prefix + "busy_ms", t, server.busy_ms)
        for hook in self._tick_hooks:
            hook(t_ms)

    def sample_until(self, horizon_ms: float) -> None:
        """Flush boundary samples through ``horizon_ms``, then one final
        sample *at* the horizon so trailing activity is never unrecorded."""
        if self._next_sample_ms is None:
            return
        while self._next_sample_ms <= horizon_ms:
            self._sample(self._next_sample_ms)
            self._next_sample_ms += self.sample_interval_ms
        self._sample(horizon_ms)

    def journal_digest(self) -> Optional[str]:
        """Hash of every event processed so far (None unless journalling)."""
        if self._journal is None:
            return None
        return self._journal.hexdigest()

    # ------------------------------------------------------------------
    # Servers
    # ------------------------------------------------------------------
    def server(self, site: str) -> SiteServer:
        """The FIFO server at ``site`` (created on first contact)."""
        server = self.servers.get(site)
        if server is None:
            server = self.servers[site] = SiteServer(site)
        return server

    def _service_ms(self, size_bytes: int) -> float:
        return (
            self.config.service_ms_per_message
            + size_bytes * self.config.service_ms_per_kb / 1024.0
        )

    def _serve(self, site: str, service_ms: float, arrival: float) -> float:
        """Occupy ``site``'s server for ``service_ms``; returns completion time."""
        server = self.server(site)
        begin = arrival if arrival >= server.free_at else server.free_at
        end = begin + service_ms
        server.free_at = end
        server.busy_ms += service_ms
        server.served += 1
        wait = begin - arrival
        server.wait_ms_total += wait
        if wait > server.max_wait_ms:
            server.max_wait_ms = wait
        return end

    def _propagation_ms(self, hop: Hop) -> float:
        if self.config.jitter == 0.0:
            return hop.base_latency_ms
        factor = 1.0 + self.rng.uniform(-self.config.jitter, self.config.jitter)
        return hop.base_latency_ms * factor

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def schedule_trace(
        self,
        trace: OpTrace,
        start: float,
        done: Callable[[float, bool], None],
    ) -> None:
        """Replay one operation's steps starting at virtual time ``start``.

        ``done(end_time, ok)`` fires when the last critical step
        completes; ``ok`` is False when a mid-run partition swallowed a
        critical hop (the operation's state already committed at capture
        time -- only its timing is reported as failed).
        """
        self._run_steps(trace.steps, 0, start, done)

    def _run_steps(
        self,
        steps: list,
        index: int,
        t: float,
        done: Callable[[float, bool], None],
    ) -> None:
        while index < len(steps):
            step = steps[index]
            if isinstance(step, Compute):
                if not step.site:
                    t += step.ms
                    index += 1
                    continue
                # Seize the site's server through the heap so the FIFO
                # order against other in-flight messages stays honest.
                self.schedule(
                    t,
                    self._start_compute(step, steps, index + 1, t, done),
                    f"compute|{step.site}",
                )
                return
            if isinstance(step, Parallel):
                self._run_parallel(step, steps, index, t, done)
                return
            # A hop.
            if not step.critical:
                self._schedule_background(step, t)
                index += 1
                continue
            if self._is_partitioned(step.source) or self._is_partitioned(step.destination):
                done(t, False)
                return
            arrival = t + self._propagation_ms(step)
            self.schedule(
                arrival,
                self._deliver_critical(step, steps, index + 1, arrival, done),
                # Journal labels are only materialized when journalling.
                f"deliver|{step.kind}|{step.source}->{step.destination}"
                if self._journal is not None
                else "deliver",
            )
            return
        done(t, True)

    def _start_compute(self, step: Compute, steps, next_index: int, t: float, done):
        def begin() -> None:
            end = self._serve(step.site, step.ms, t)
            self._run_steps(steps, next_index, end, done)

        return begin

    def _deliver_critical(self, hop: Hop, steps, next_index: int, arrival: float, done):
        def deliver() -> None:
            if self._is_partitioned(hop.destination):
                done(arrival, False)
                return
            end = self._serve(hop.destination, self._service_ms(hop.size_bytes), arrival)
            self._run_steps(steps, next_index, end, done)

        return deliver

    def _run_parallel(self, group: Parallel, steps, index: int, t: float, done) -> None:
        branches = group.branches
        if not branches:
            self._run_steps(steps, index + 1, t, done)
            return
        state = {"remaining": len(branches), "end": t, "ok": True}

        def branch_done(branch_end: float, branch_ok: bool) -> None:
            state["remaining"] -= 1
            if branch_end > state["end"]:
                state["end"] = branch_end
            state["ok"] = state["ok"] and branch_ok
            if state["remaining"] == 0:
                if not state["ok"]:
                    done(state["end"], False)
                else:
                    self._run_steps(steps, index + 1, state["end"], done)

        for branch in branches:
            self._run_steps(branch, 0, t, branch_done)

    def _schedule_background(self, hop: Hop, t: float) -> None:
        """Asynchronous (notify) hop: loads the network but nobody waits on it."""
        if self._is_partitioned(hop.source) or self._is_partitioned(hop.destination):
            self.notifications_lost += 1
            return
        arrival = t + self._propagation_ms(hop)

        def deliver() -> None:
            if self._is_partitioned(hop.destination):
                self.notifications_lost += 1
                return
            self._serve(hop.destination, self._service_ms(hop.size_bytes), arrival)

        self.schedule(
            arrival,
            deliver,
            f"notify|{hop.source}->{hop.destination}" if self._journal is not None else "notify",
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def site_snapshots(self, horizon_ms: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """Per-site utilization over ``horizon_ms`` (default: current clock)."""
        horizon = horizon_ms if horizon_ms is not None else self.now
        return {
            site: server.snapshot(horizon) for site, server in sorted(self.servers.items())
        }
