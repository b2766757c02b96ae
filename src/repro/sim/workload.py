"""Concurrent-client workloads over the discrete-event kernel.

The runner drives N closed-loop clients against one architecture model:
each client executes its next operation the moment its previous one
completes (plus optional think time).  Operations run synchronously
against the model at their virtual start instant (mutating its state and
capturing an :class:`~repro.sim.trace.OpTrace`), and the captured
message exchange is then replayed through the kernel, where it contends
with every other in-flight operation at shared site servers.  The model
is "atomic state, extended time": state changes commit at operation
start, timing unfolds message by message in virtual time.

The outcome is a :class:`SimReport`: latency percentiles (overall and
per operation kind), per-site utilization and queueing, schedule
actions applied, and -- when journalling is on -- a digest that is
byte-identical across runs with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.distributed.base import ArchitectureModel, OperationResult
from repro.errors import ConfigurationError, PassError
from repro.obs.alerts import AlertEngine, load_rules
from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeriesStore
from repro.sim.kernel import SimConfig, SimKernel
from repro.sim.schedule import Schedule
from repro.sim.stats import latency_summary, percentile
from repro.sim.trace import Compute, OpTrace

__all__ = [
    "percentile",
    "latency_summary",
    "SimOpRecord",
    "SimReport",
    "WorkloadRunner",
    "simulate_publish_workload",
]


@dataclass(frozen=True)
class SimOpRecord:
    """One completed (or failed) operation of one simulated client."""

    client: int
    kind: str
    start_ms: float
    end_ms: float
    ok: bool
    note: str = ""

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


class SimReport:
    """Everything one simulated run measured."""

    def __init__(
        self,
        *,
        clients: int,
        config: SimConfig,
        records: List[SimOpRecord],
        sites: Dict[str, Dict[str, float]],
        virtual_ms: float,
        events: int,
        notifications_lost: int,
        schedule_applied: List[str],
        journal_digest: Optional[str],
        wall_seconds: float,
        timeseries: Optional[TimeSeriesStore] = None,
        alerts: Optional[dict] = None,
    ) -> None:
        self.clients = clients
        self.config = config
        self.records = records
        self.sites = sites
        self.virtual_ms = virtual_ms
        self.events = events
        self.notifications_lost = notifications_lost
        self.schedule_applied = schedule_applied
        self.journal_digest = journal_digest
        self.wall_seconds = wall_seconds
        #: the virtual-clock TimeSeriesStore (None unless sampling was on)
        self.timeseries = timeseries
        #: the alert engine's final snapshot (None unless rules were given)
        self.alerts = alerts

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def ok_records(self) -> List[SimOpRecord]:
        return [record for record in self.records if record.ok]

    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Latencies of successful operations, optionally for one kind."""
        return [
            record.latency_ms
            for record in self.records
            if record.ok and (kind is None or record.kind == kind)
        ]

    def summary(self, kind: Optional[str] = None) -> Dict[str, float]:
        return latency_summary(self.latencies(kind))

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        kinds = sorted({record.kind for record in self.records if record.ok})
        return {kind: self.summary(kind) for kind in kinds}

    def events_per_second(self) -> float:
        """Kernel throughput of this run (wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def snapshot(self) -> Dict[str, object]:
        """The plain-dict form surfaced as ``client.stats()["sim"]``."""
        return {
            "enabled": True,
            "clients": self.clients,
            "seed": self.config.seed,
            "ops": len(self.records),
            "failed": self.failed(),
            "virtual_ms": round(self.virtual_ms, 3),
            "events": self.events,
            "notifications_lost": self.notifications_lost,
            "latency_ms": self.summary(),
            "by_kind": self.by_kind(),
            "sites": self.sites,
            "schedule_applied": list(self.schedule_applied),
            "journal_digest": self.journal_digest,
            "timeseries": self.timeseries.snapshot() if self.timeseries else None,
            "alerts": self.alerts,
        }

    @staticmethod
    def disabled_snapshot(reason: str = "no simulation has run") -> Dict[str, object]:
        """The uniform ``stats()["sim"]`` shape before/without a simulation."""
        return {"enabled": False, "reason": reason}


class WorkloadRunner:
    """Run N closed-loop clients against one architecture model.

    Parameters
    ----------
    model:
        An :class:`~repro.distributed.base.ArchitectureModel` (or a
        façade client wrapping one -- its ``.model`` is used).
    op_factory:
        ``op_factory(client_index, op_index)`` returns a zero-argument
        callable executing one operation against the model (returning
        its :class:`OperationResult`), or ``None`` when that client is
        done.  The callable runs at the operation's virtual start time.
    clients:
        Number of concurrent closed-loop clients.
    config / schedule / think_ms:
        Kernel knobs, timed partition/heal events, per-client pause
        between operations.
    failure_backoff_ms:
        Virtual pause after a failed operation (a publish refused by a
        partition, say) before the client retries its next one; keeps a
        fully cut-off client from spinning at one virtual instant.
    sample_interval_ms:
        When set, the run keeps a virtual-clock
        :class:`~repro.obs.timeseries.TimeSeriesStore`: per-site backlog
        / served / busy series from the kernel plus workload-level
        ``ops.completed`` / ``ops.failed`` counters and ``op.latency_ms``
        (overall and per kind) histogram series -- the same schema a
        live daemon's sampler emits, exposed as
        ``report.timeseries`` and in ``snapshot()["timeseries"]``.
    timeseries_retention:
        Ring length of that store (slots per series).
    alert_rules:
        Alert rules (path / parsed list / :class:`AlertRule` objects)
        evaluated on every sample tick against the virtual-clock store;
        implies sampling (default interval 1000 virtual ms).  The
        engine's final snapshot lands in ``report.alerts``.
    """

    def __init__(
        self,
        model,
        op_factory: Callable[[int, int], Optional[Callable[[], OperationResult]]],
        *,
        clients: int = 1,
        config: Optional[SimConfig] = None,
        schedule: Optional[Schedule] = None,
        think_ms: float = 0.0,
        failure_backoff_ms: float = 10.0,
        sample_interval_ms: Optional[float] = None,
        timeseries_retention: int = 512,
        alert_rules=None,
    ) -> None:
        model = getattr(model, "model", model)
        if not isinstance(model, ArchitectureModel):
            raise ConfigurationError(
                "the workload runner drives architecture models; "
                f"got {type(model).__name__} (local stores have no simulated network)"
            )
        if clients < 1:
            raise ConfigurationError("need at least one client")
        self.model = model
        self.network = model.network
        self.op_factory = op_factory
        self.clients = clients
        self.config = config if config is not None else SimConfig()
        self.schedule = schedule
        self.think_ms = think_ms
        self.failure_backoff_ms = failure_backoff_ms
        self.alert_rules = load_rules(alert_rules) if alert_rules else []
        if self.alert_rules and sample_interval_ms is None:
            sample_interval_ms = 1000.0
        if sample_interval_ms is not None and sample_interval_ms <= 0:
            raise ConfigurationError("sample_interval_ms must be positive")
        self.sample_interval_ms = sample_interval_ms
        self.timeseries_retention = timeseries_retention

    def run(self) -> SimReport:
        import time as _time

        timeseries: Optional[TimeSeriesStore] = None
        engine: Optional[AlertEngine] = None
        if self.sample_interval_ms is not None:
            timeseries = TimeSeriesStore(
                interval_s=self.sample_interval_ms / 1000.0,
                retention=self.timeseries_retention,
            )
            if self.alert_rules:
                engine = AlertEngine(timeseries, self.alert_rules)
        kernel = SimKernel(
            self.config,
            is_partitioned=self.network.is_partitioned,
            timeseries=timeseries,
            sample_interval_ms=self.sample_interval_ms,
        )
        records: List[SimOpRecord] = []
        applied: List[str] = []
        if self.schedule is not None:
            applied = self.schedule.install(kernel, self.network)

        # Workload-level series: cumulative op counters and latency
        # histograms scraped on every kernel sample tick, exactly as the
        # daemon sampler scrapes its telemetry instruments on wall time.
        latency_all = Histogram("op.latency_ms")
        latency_by_kind: Dict[str, Histogram] = {}
        op_counts = {"completed": 0, "failed": 0}

        def count_op(kind: str, latency_ms: float, ok: bool) -> None:
            op_counts["completed"] += 1
            if not ok:
                op_counts["failed"] += 1
            latency_all.observe(latency_ms)
            by_kind = latency_by_kind.get(kind)
            if by_kind is None:
                by_kind = latency_by_kind[kind] = Histogram(f"op.{kind}.latency_ms")
            by_kind.observe(latency_ms)

        if timeseries is not None:
            def sample_ops(t_ms: float) -> None:
                t = t_ms / 1000.0
                timeseries.observe_counter("ops.completed", t, op_counts["completed"])
                timeseries.observe_counter("ops.failed", t, op_counts["failed"])
                timeseries.observe_histogram("op.latency_ms", t, latency_all.state())
                for kind, hist in latency_by_kind.items():
                    timeseries.observe_histogram(
                        f"op.{kind}.latency_ms", t, hist.state()
                    )
                if engine is not None:
                    engine.evaluate(t)

            kernel.add_tick_hook(sample_ops)

        def start_op(client: int, op_index: int) -> None:
            thunk = self.op_factory(client, op_index)
            if thunk is None:
                return
            start = kernel.now
            try:
                result = thunk()
            except PassError as error:
                records.append(
                    SimOpRecord(client, "error", start, start, False, note=str(error))
                )
                count_op("error", 0.0, False)
                kernel.schedule(
                    start + self.failure_backoff_ms + self.think_ms,
                    lambda: start_op(client, op_index + 1),
                    f"client|{client}",
                )
                return
            trace = getattr(result, "trace", None)
            if trace is None:
                # Untraced operation (not a model's): charge the latency
                # it reports as pure pipeline delay.
                trace = OpTrace(kind="op", origin="", steps=[Compute(result.latency_ms)])

            def op_done(end: float, ok: bool) -> None:
                records.append(SimOpRecord(client, trace.kind, start, end, ok))
                count_op(trace.kind, end - start, ok)
                backoff = 0.0 if ok else self.failure_backoff_ms
                kernel.schedule(
                    end + self.think_ms + backoff,
                    lambda: start_op(client, op_index + 1),
                    f"client|{client}",
                )

            kernel.schedule_trace(trace, start, op_done)

        for client in range(self.clients):
            kernel.schedule(0.0, (lambda c=client: start_op(c, 0)), f"client|{client}")

        began = _time.perf_counter()
        kernel.run()
        wall = _time.perf_counter() - began

        # The workload's horizon is when its last operation (or trailing
        # server activity) finished -- NOT kernel.now, which a schedule
        # event pinned far in the future would drag along, inflating
        # virtual_ms and diluting every utilization figure.
        horizon = max(
            [record.end_ms for record in records]
            + [server.free_at for server in kernel.servers.values()]
            + [0.0]
        )
        kernel.sample_until(horizon)
        report = SimReport(
            clients=self.clients,
            config=self.config,
            records=records,
            sites=kernel.site_snapshots(horizon),
            virtual_ms=horizon,
            events=kernel.events_processed,
            notifications_lost=kernel.notifications_lost,
            schedule_applied=applied,
            journal_digest=kernel.journal_digest(),
            wall_seconds=wall,
            timeseries=timeseries,
            alerts=engine.snapshot() if engine is not None else None,
        )
        # Surface the run on the simulator so client.stats()["sim"] sees it.
        self.network.last_sim_report = report
        return report


def simulate_publish_workload(
    model,
    tuple_sets: Sequence,
    *,
    clients: int = 1,
    sites: Optional[Sequence[str]] = None,
    config: Optional[SimConfig] = None,
    schedule: Optional[Schedule] = None,
    think_ms: float = 0.0,
    sample_interval_ms: Optional[float] = None,
    alert_rules=None,
) -> SimReport:
    """Publish ``tuple_sets`` through N concurrent clients, round-robin.

    Client ``i`` publishes tuple sets ``i, i+N, i+2N, ...`` from its
    pinned origin site (``sites[i % len(sites)]``; defaults to the
    model's storage sites).  The standard way to observe how an
    architecture behaves under concurrent update load.
    """
    model = getattr(model, "model", model)
    origin_sites = list(sites) if sites else [
        site.name for site in model.topology.sites(kind="storage")
    ] or model.topology.site_names

    def op_factory(client: int, op_index: int):
        position = client + op_index * clients
        if position >= len(tuple_sets):
            return None
        tuple_set = tuple_sets[position]
        origin = origin_sites[client % len(origin_sites)]
        return lambda: model.publish(tuple_set, origin)

    runner = WorkloadRunner(
        model,
        op_factory,
        clients=clients,
        config=config,
        schedule=schedule,
        think_ms=think_ms,
        sample_interval_ms=sample_interval_ms,
        alert_rules=alert_rules,
    )
    return runner.run()
