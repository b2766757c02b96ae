"""Command-line interface: ``python -m repro <command>``.

Every subcommand is a thin veneer over the library:

* ``experiments`` -- run the E1-E14 experiments and print their tables
  (``--output`` also writes them to a file),
* ``workload`` -- generate a synthetic workload, publish it into a target
  and summarise it,
* ``query`` / ``explain`` -- run a query against a generated workload and
  print its matches, or the planner's EXPLAIN: the access path chosen,
  estimated vs. actual rows, rows scanned and result-cache status,
* ``watch`` -- register the query as a standing one (``repro.stream``) and
  tail its matches, or with ``--every SECONDS`` its window aggregates,
  while the generated workload streams into the target,
* ``trace`` -- run the workload and query traced (``repro.obs``) and
  export the span tree as Chrome trace-event JSON; with a ``pass://``
  store the tree stitches across the wire into the daemon,
* ``lineage ancestors|path|stats`` -- page through a data set's closure,
  print one derivation path back to a raw source, or report the graph
  shape and the closure's index statistics (``repro.lineage``),
* ``simulate`` -- publish a generated workload through ``--clients N``
  concurrent closed-loop clients over the discrete-event kernel
  (``repro.sim``) against an architecture model, optionally under a
  ``--schedule`` of timed partition/heal/churn events,
* ``serve`` -- run the provenance daemon (``repro.server``) in the
  foreground, with its access log, slow-query log, OpenMetrics/health
  endpoint, alert rules and time-series sampler,
* ``top`` / ``healthcheck`` / ``alerts`` -- introspect a running daemon:
  live per-tenant op rates and latencies, a health probe exiting 0 / 1 / 2
  for ok / degraded / failing (3 when unreachable), and its alert rules.

``query``, ``explain``, ``watch`` and ``trace`` share one predicate
grammar.  A term is ``name=value``, ``name<=v``, ``name>=v``,
``name<v``, ``name>v`` or ``name~substring``, split at its leftmost
operator, with the value read as an int, else a float, else text; terms,
``--window START,END`` and ``--near LAT,LON,KM`` are ANDed.  Each shared
flag group (the generated workload, the target, the predicate, the daemon
address) is declared once, and the target is a ``--store`` URL
(``memory://``, ``sqlite:///pass.db``, ``centralized://``,
``dht://?sites=32``, ...) exactly as :func:`repro.api.connect` accepts it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from repro.api import Q, connect
from repro.eval import format_experiment, run_all
from repro.sensors.workloads import (
    MedicalWorkload,
    StructuralWorkload,
    SupplyChainWorkload,
    TrafficWorkload,
    VolcanoWorkload,
    WeatherWorkload,
)

__all__ = ["main", "build_parser"]

_WORKLOADS = {
    "traffic": TrafficWorkload,
    "weather": WeatherWorkload,
    "medical": MedicalWorkload,
    "volcano": VolcanoWorkload,
    "structural": StructuralWorkload,
    "supply-chain": SupplyChainWorkload,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI (exposed for testing)."""
    # The shared flag groups.  argparse hands a parent's Action objects to
    # every child, so a set_defaults() on one subcommand would change that
    # flag's default for all of them: none may.
    generated = argparse.ArgumentParser(add_help=False)
    generated.add_argument("domain", choices=sorted(_WORKLOADS), help="which domain to simulate")
    generated.add_argument("--hours", type=float, default=1.0, help="simulated duration")
    generated.add_argument("--seed", type=int, default=0, help="workload seed")
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--store", default="memory://", help="connect() URL of the target (default: memory://)")
    predicate = argparse.ArgumentParser(add_help=False)
    predicate.add_argument(
        "predicates", nargs="*", help="predicates, e.g. city=london stage=raw sequence>=10 name~cam"
    )
    predicate.add_argument(
        "--window",
        default=None,
        metavar="START,END",
        help="AND a time-window overlap (seconds), e.g. --window 0,1800",
    )
    predicate.add_argument(
        "--near",
        default=None,
        metavar="LAT,LON,KM",
        help="AND a geographic radius, e.g. --near 51.5,-0.12,5",
    )
    daemon = argparse.ArgumentParser(add_help=False)
    daemon.add_argument("url", help="daemon URL, e.g. pass://127.0.0.1:7100")
    daemon.add_argument("--token", default=None, help="auth token for a tokened daemon")
    daemon.add_argument("--tenant", default=None, help="tenant name (open daemons only)")
    daemon.add_argument("--json", action="store_true", help="print JSON instead of the text layout")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Provenance-Aware Sensor Data Storage (PASS) reproduction tools",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, parents=()):
        sub = subcommands.add_parser(name, help=help, parents=list(parents))
        sub.set_defaults(run=run)
        return sub

    experiments = command(
        "experiments", _cmd_experiments, "run evaluation experiments (E1-E14) and print their tables"
    )
    experiments.add_argument(
        "ids", nargs="*", default=None, help="experiment ids, e.g. E1 E12 (default: all)"
    )
    experiments.add_argument("--output", default=None, help="also write the report to this file")

    command(
        "workload", _cmd_workload, "generate a synthetic workload and summarise it", (generated, target)
    )
    query = command(
        "query",
        _cmd_query,
        "run a query against a freshly generated workload",
        (generated, predicate, target),
    )
    query.add_argument("--limit", type=int, default=10, help="maximum records to print")
    command(
        "explain",
        _cmd_explain,
        "run a query and print the planner's EXPLAIN output",
        (generated, predicate, target),
    )

    watch = command(
        "watch",
        _cmd_watch,
        "subscribe to a standing query and tail its matches live",
        (generated, predicate, target),
    )
    watch.add_argument(
        "--every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="aggregate matches over event-time windows of this size",
    )
    watch.add_argument(
        "--slide",
        type=float,
        default=None,
        metavar="SECONDS",
        help="window slide (default: tumbling, slide == size)",
    )
    watch.add_argument(
        "--aggregate",
        default="count",
        choices=("count", "sum", "mean", "min", "max"),
        help="window aggregate (default: count)",
    )
    watch.add_argument(
        "--value-attr",
        default=None,
        help="record attribute the aggregate reads (required except for count)",
    )
    watch.add_argument(
        "--group-by",
        default=None,
        help="record attribute partitioning each window into per-group aggregates",
    )
    watch.add_argument("--limit", type=int, default=20, help="maximum events to print")

    lineage = command(
        "lineage", _cmd_lineage, "inspect provenance lineage through the reachability index (repro.lineage)"
    )
    lineage_commands = lineage.add_subparsers(dest="lineage_command", required=True)
    for name, description in (
        ("ancestors", "list everything a data set was transitively derived from"),
        ("path", "one derivation path from a derived data set back to a raw source"),
        ("stats", "graph shape and reachability-index statistics"),
    ):
        sub = lineage_commands.add_parser(name, help=description, parents=[generated, target])
        if name in ("ancestors", "path"):
            sub.add_argument(
                "--focus",
                type=int,
                default=-1,
                help="index into the derived tuple sets (default: -1, the most derived)",
            )
        if name == "ancestors":
            sub.add_argument("--limit", type=int, default=20, help="page size (default: 20)")
            sub.add_argument("--offset", type=int, default=0, help="page offset (default: 0)")

    serve = command(
        "serve", _cmd_serve, "run the provenance service daemon (repro.server) in the foreground", (target,)
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=7100, help="listen port (default: 7100; 0 = ephemeral)"
    )
    serve.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="TOKEN=TENANT",
        help="require auth: map TOKEN to TENANT (repeatable); omit for an open daemon",
    )
    serve.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="access-log verbosity on the repro.server logger (default: info)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log the Explain tree of any query slower than this many ms",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve OpenMetrics text on this plain HTTP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--alert-rules",
        default=None,
        metavar="FILE",
        help="JSON file of alert rules evaluated on the sampler tick",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="time-series sampling interval (default: 1.0; 0 disables the sampler)",
    )

    top = command(
        "top", _cmd_top, "live daemon introspection: per-tenant op rates, latency percentiles", (daemon,)
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes (default: 2)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N refreshes (default: run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit (== --iterations 1)"
    )
    top.add_argument(
        "--reconnect-attempts",
        type=int,
        default=5,
        metavar="N",
        help="retries (with backoff) if the daemon restarts mid-watch (default: 5)",
    )
    command(
        "healthcheck", _cmd_healthcheck, "probe a daemon's health op; exit 0 ok / 1 degraded / 2 failing", (daemon,)
    )
    command(
        "alerts", _cmd_alerts, "show a daemon's alert rules, firing alerts, and recent transitions", (daemon,)
    )

    tracecmd = command(
        "trace",
        _cmd_trace,
        "run a traced workload + query and export Chrome trace-event JSON "
        "(a pass:// --store stitches the daemon's spans into the same tree)",
        (generated, predicate, target),
    )
    tracecmd.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the trace JSON here (default: print it)",
    )

    simulate = command(
        "simulate",
        _cmd_simulate,
        "publish a workload through N concurrent simulated clients (repro.sim)",
        (generated,),
    )
    simulate.add_argument(
        "--store",
        default="centralized://",
        help="connect() URL of an architecture model (local stores have no network)",
    )
    simulate.add_argument(
        "--clients", type=int, default=8, help="concurrent closed-loop clients (default: 8)"
    )
    simulate.add_argument("--ops", type=int, default=None, help="cap on total tuple sets published")
    simulate.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="JSON file of timed partition/heal/churn events",
    )
    simulate.add_argument(
        "--service-ms",
        type=float,
        default=0.05,
        help="per-message service time at each site server (default: 0.05)",
    )
    simulate.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="propagation latency jitter fraction in [0, 1) (default: 0)",
    )
    simulate.add_argument("--think-ms", type=float, default=0.0, help="client pause between operations")
    return parser


@contextlib.contextmanager
def _build_client(domain: str, hours: float, seed: int, url: str = "memory://"):
    """Generate a workload and publish it (batched) into a connect() target.

    The client is closed when the block ends: a durable target gets its
    index checkpoint, so the next open adopts the file instead of
    replaying it (docs/STORAGE.md, "Open path").
    """
    workload = _WORKLOADS[domain](seed=seed)
    raw, derived = workload.all_sets(hours=hours)
    with connect(url) as client:
        client.publish_many(raw + derived)
        client.refresh()
        yield workload, client, raw, derived


def _cmd_experiments(args, out) -> int:
    ids = [i.upper() for i in args.ids] if args.ids else None
    blocks = []
    for result in run_all(ids):
        block = format_experiment(result)
        blocks.append(block)
        print(block, file=out)
        print(file=out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks) + "\n")
    return 0


def _cmd_workload(args, out) -> int:
    with _build_client(args.domain, args.hours, args.seed, args.store) as (workload, client, raw, derived):
        facts = workload.describe()
        stats = client.stats()
        print(f"domain:            {facts['domain']}", file=out)
        print(f"networks:          {', '.join(facts['networks'])}", file=out)
        print(f"sensors:           {facts['sensors']}", file=out)
        print(f"simulated hours:   {args.hours}", file=out)
        print(f"store:             {args.store} (target: {stats['target']})", file=out)
        print(f"raw tuple sets:    {len(raw)}", file=out)
        print(f"derived tuple sets:{len(derived)}", file=out)
        print(f"readings:          {sum(len(ts) for ts in raw)}", file=out)
        store = getattr(client, "store", None)
        if store is not None:
            print(f"store size:        {len(store)} records", file=out)
            print(
                f"derivation depth:  {max(store.graph.ancestry_depth_distribution() or {0: 0})}",
                file=out,
            )
            violations = store.verify_invariants()
            print(f"invariants:        {'ok' if not violations else violations}", file=out)
        else:
            print(f"published:         {stats.get('published', len(raw) + len(derived))}", file=out)
        return 0


def _coerce_scalar(raw_value: str):
    """CLI values arrive as text; prefer int, then float, then string."""
    for caster in (int, float):
        try:
            return caster(raw_value)
        except ValueError:
            continue
    return raw_value


_CLI_OPERATORS = {
    ">=": lambda name, value: Q.attr(name) >= value,
    "<=": lambda name, value: Q.attr(name) <= value,
    ">": lambda name, value: Q.attr(name) > value,
    "<": lambda name, value: Q.attr(name) < value,
    "=": lambda name, value: Q.attr(name) == value,
    "~": lambda name, value: Q.attr(name).contains(str(value)),
}


def _split_term(text: str):
    """One ``name<op>value`` term as ``(name, op, value)``, or None for malformed input.

    The *leftmost* operator occurrence splits name from value (longest
    operator winning a tie), so values containing operator characters
    (``note=x>y``) parse as the user wrote them.  A term that starts with
    an operator (``=value``, ``>=1``) has no attribute name: malformed.
    """
    hits = [(position, -len(op), op) for op in _CLI_OPERATORS if (position := text.find(op)) >= 0]
    if not hits:
        return None
    position, _, op = min(hits)
    if position == 0:
        return None
    return text[:position], op, _coerce_scalar(text[position + len(op):])


def _parse_cli_predicate(text: str):
    """One ``name<op>value`` term as a predicate, or None for malformed input."""
    term = _split_term(text)
    if term is None:
        return None
    name, op, value = term
    return _CLI_OPERATORS[op](name, value)


def _build_explain_predicate(args):
    """AND together the term predicates and the --window/--near options."""
    from repro.core.attributes import GeoPoint
    from repro.errors import ConfigurationError, QueryError

    parts = []
    for text in args.predicates:
        predicate = _parse_cli_predicate(text)
        if predicate is None:
            return None, f"malformed predicate {text!r} (expected name=value or name<=value ...)"
        parts.append(predicate)
    if args.window is not None:
        try:
            start_text, _, end_text = args.window.partition(",")
            parts.append(Q.between(float(start_text), float(end_text)))
        except (ValueError, QueryError) as error:
            return None, f"bad --window {args.window!r} (expected START,END seconds): {error}"
    if args.near is not None:
        try:
            lat_text, lon_text, radius_text = args.near.split(",")
            radius = float(radius_text)
            if radius < 0:
                raise ConfigurationError("radius must be non-negative")
            parts.append(Q.near(GeoPoint(float(lat_text), float(lon_text)), radius))
        except (ValueError, ConfigurationError) as error:
            return None, f"bad --near {args.near!r} (expected LAT,LON,KM): {error}"
    if not parts:
        return Q.everything(), None
    if len(parts) == 1:
        return parts[0], None
    return Q.all(*parts), None


def _cmd_explain(args, out) -> int:
    predicate, error = _build_explain_predicate(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with _build_client(args.domain, args.hours, args.seed, args.store) as (_, client, *_):
        explain = client.explain(predicate)
    print(explain.format(), file=out)
    return 0


def _summarise_record(record) -> str:
    return ", ".join(
        f"{key}={record.get(key)}"
        for key in ("domain", "network", "city", "stage", "window_start")
        if record.get(key) is not None
    )


def _cmd_watch(args, out) -> int:
    """Subscribe first, then stream the generated workload in: matches print live."""
    from repro.stream import MatchEvent, WindowEvent, WindowSpec
    from repro.errors import ConfigurationError

    predicate, error = _build_explain_predicate(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    window = None
    if args.every is not None:
        try:
            window = WindowSpec(
                size_seconds=args.every,
                slide_seconds=args.slide,
                aggregate=args.aggregate,
                value_attr=args.value_attr,
                group_by=args.group_by,
            )
        except ConfigurationError as exc:
            print(f"error: bad window aggregation: {exc}", file=sys.stderr)
            return 2
    elif (
        args.slide is not None
        or args.value_attr is not None
        or args.group_by is not None
        or args.aggregate != "count"
    ):
        print(
            "error: --slide/--value-attr/--group-by/--aggregate need --every SECONDS",
            file=sys.stderr,
        )
        return 2

    workload = _WORKLOADS[args.domain](seed=args.seed)
    raw, derived = workload.all_sets(hours=args.hours)
    with connect(args.store) as client:
        shown = 0

        def on_event(event) -> None:
            nonlocal shown
            if shown >= args.limit:
                return
            shown += 1
            if isinstance(event, WindowEvent):
                group = "" if event.group is None else f" {args.group_by}={event.group}"
                value = "-" if event.value is None else f"{event.value:g}"
                print(
                    f"window [{event.window_start:g}, {event.window_end:g})"
                    f"{group}  {event.aggregate}={value} over {event.count} match(es)",
                    file=out,
                )
            elif isinstance(event, MatchEvent):
                print(f"match {event.pname.short}  {_summarise_record(event.record)}", file=out)

        subscription = client.subscribe(predicate, callback=on_event, window=window)
        client.publish_many(raw + derived)
        client.refresh()
        if window is not None:
            client.flush_windows()  # trailing partial windows still report

        facts = subscription.stats()
        print(
            f"-- watched {len(raw) + len(derived)} published tuple set(s): "
            f"{facts['matched']} event(s) matched, {facts['delivered']} delivered"
            + (f" ({shown} shown)" if facts["delivered"] > shown else ""),
            file=out,
        )
        stats = client.stats()
        notify = stats.get("traffic", {}).get("by_kind", {}).get("notify")
        if notify is not None:
            print(
                f"-- dissemination: {notify['messages']} notify message(s), "
                f"{notify['bytes']} bytes over the simulated network",
                file=out,
            )
        return 0


def _format_summary(summary) -> str:
    return (
        f"mean {summary['mean']:g}  p50 {summary['p50']:g}  "
        f"p95 {summary['p95']:g}  p99 {summary['p99']:g}  max {summary['max']:g}"
    )


def _cmd_simulate(args, out) -> int:
    """Drive a concurrent-client discrete-event run and print its report."""
    from repro.errors import ConfigurationError
    from repro.sim import Schedule, SimConfig

    schedule = None
    if args.schedule is not None:
        try:
            schedule = Schedule.load(args.schedule)
        except (OSError, ConfigurationError) as error:
            print(f"error: cannot load schedule {args.schedule!r}: {error}", file=sys.stderr)
            return 2
    try:
        config = SimConfig(
            seed=args.seed,
            service_ms_per_message=args.service_ms,
            jitter=args.jitter,
            journal=True,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    workload = _WORKLOADS[args.domain](seed=args.seed)
    raw, derived = workload.all_sets(hours=args.hours)
    tuple_sets = raw + derived
    if args.ops is not None:
        tuple_sets = tuple_sets[: args.ops]

    with connect(args.store) as client:
        if not hasattr(client, "simulate"):
            print(
                f"error: {args.store!r} is a local store; "
                "simulate needs an architecture model (e.g. centralized://, dht://?sites=32)",
                file=sys.stderr,
            )
            return 2
        try:
            report = client.simulate(
                tuple_sets,
                clients=args.clients,
                config=config,
                schedule=schedule,
                think_ms=args.think_ms,
            )
        except ConfigurationError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

        print(f"target:             {args.store} ({client.target})", file=out)
        print(f"clients:            {report.clients} concurrent, closed loop", file=out)
        print(
            f"operations:         {len(report.records) - report.failed()} ok, "
            f"{report.failed()} failed",
            file=out,
        )
        print(f"virtual time:       {report.virtual_ms:g} ms", file=out)
        print(
            f"kernel events:      {report.events} "
            f"({report.events_per_second():,.0f} events/s wall)",
            file=out,
        )
        print(f"latency (all):      {_format_summary(report.summary())}", file=out)
        for kind, summary in report.by_kind().items():
            print(f"  {kind:<17} {_format_summary(summary)}", file=out)
        busiest = sorted(
            report.sites.items(), key=lambda item: -item[1]["utilization"]
        )[:5]
        if busiest:
            print("site utilization (top 5):", file=out)
            for site, facts in busiest:
                print(
                    f"  {site:<17} {facts['utilization'] * 100:5.1f}%  "
                    f"served {facts['served']}  mean wait {facts['mean_wait_ms']:g} ms",
                    file=out,
                )
        if report.schedule_applied:
            print(
                f"schedule:           {len(report.schedule_applied)} action(s): "
                + "; ".join(report.schedule_applied),
                file=out,
            )
        if report.notifications_lost:
            print(f"notifications lost: {report.notifications_lost}", file=out)
        print(f"journal:            sha256 {report.journal_digest}", file=out)
        return 0


def _cmd_lineage(args, out) -> int:
    """Lineage inspection: ancestors / path / stats over a generated workload."""
    with _build_client(args.domain, args.hours, args.seed, args.store) as (_, client, _, derived):
        return _lineage_report(args, out, client, derived)


def _lineage_report(args, out, client, derived) -> int:
    if args.lineage_command == "stats":
        stats = client.stats()
        planner = stats.get("planner") or {}
        graph = (planner.get("statistics") or {}).get("graph")
        if graph is None:
            print(f"target: {args.store} ({stats['target']})", file=out)
            print("no per-store graph statistics on this target (model facts below)", file=out)
            for key in ("name", "supports_lineage", "published", "queries_run", "sites"):
                if key in stats:
                    print(f"  {key}: {stats[key]}", file=out)
            return 0
        closure = stats.get("closure", {})
        print(f"target:            {args.store} ({stats['target']})", file=out)
        print(f"records:           {stats['records']}", file=out)
        print(f"graph nodes/edges: {graph['nodes']} / {graph['edges']}", file=out)
        print(f"derivation depth:  max {graph['max_depth']}  mean {graph['mean_depth']}", file=out)
        print(f"fan-in:            max {graph['max_fan_in']}  mean {graph['mean_fan_in']}", file=out)
        print(f"expected reach:    {graph['expected_reach']}", file=out)
        print(f"closure strategy:  {closure.get('strategy', '?')}", file=out)
        for key in ("chains", "label_entries", "rebuilds", "incremental_merges", "dirty_edges"):
            if key in closure:
                print(f"  {key}: {closure[key]}", file=out)
        busiest = sorted(graph["depth_histogram"].items())[-5:]
        print(
            "depth histogram:   " + "  ".join(f"{d}:{count}" for d, count in busiest)
            + ("  (deepest 5 buckets)" if len(graph["depth_histogram"]) > 5 else ""),
            file=out,
        )
        return 0

    if not derived:
        print("error: this workload produced no derived tuple sets", file=sys.stderr)
        return 2
    try:
        focus = derived[args.focus]
    except IndexError:
        print(
            f"error: --focus {args.focus} out of range ({len(derived)} derived sets)",
            file=sys.stderr,
        )
        return 2

    if args.lineage_command == "ancestors":
        answer = client.ancestors(focus, limit=args.limit, offset=args.offset)
        print(
            f"{answer.total} ancestor(s) of {focus.pname.short} "
            f"(showing {len(answer)} from offset {args.offset})",
            file=out,
        )
        for pname in answer:
            record = client.describe_record(pname)
            suffix = f"  {_summarise_record(record)}" if record is not None else ""
            print(f"  {pname.short}{suffix}", file=out)
        return 0

    # path: needs the local store's graph (models return sets, not paths)
    store = getattr(client, "store", None)
    if store is None:
        print(
            "error: 'lineage path' needs a local target (memory:// or sqlite://); "
            "architecture models answer closure sets, not paths",
            file=sys.stderr,
        )
        return 2
    sources = sorted(store.raw_sources(focus.pname), key=lambda p: p.digest)
    if not sources:
        print(f"{focus.pname.short} is raw data; it has no derivation path", file=out)
        return 0
    path = store.derivation_path(focus.pname, sources[0])
    if path is None:
        print("error: no derivation path found", file=sys.stderr)
        return 2
    print(f"derivation path ({len(path)} hop(s), most derived first):", file=out)
    for pname in path:
        record = client.describe_record(pname)
        suffix = f"  {_summarise_record(record)}" if record is not None else ""
        print(f"  {pname.short}{suffix}", file=out)
    return 0


def _cmd_query(args, out) -> int:
    predicate, error = _build_explain_predicate(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    asked = [f"{name}{op}{value!r}" for name, op, value in map(_split_term, args.predicates)]
    asked += [f"--{flag} {text}" for flag, text in (("window", args.window), ("near", args.near)) if text is not None]
    with _build_client(args.domain, args.hours, args.seed, args.store) as (_, client, *_):
        answer = client.query(predicate, limit=args.limit)
        print(f"{answer.total} data sets match {' '.join(asked) or 'everything'}", file=out)
        for pname in answer:
            record = client.describe_record(pname)
            suffix = f"  {_summarise_record(record)}" if record is not None else ""
            print(f"  {pname.short}{suffix}", file=out)
        if answer.has_more:
            print(f"  ... and {answer.total - len(answer)} more", file=out)
        return 0


def _cmd_serve(args, out) -> int:
    """Run the repro.server daemon in the foreground until interrupted."""
    import logging

    from repro.errors import PassError
    from repro.server import PassDaemon

    tokens = None
    if args.token:
        tokens = {}
        for entry in args.token:
            token, separator, tenant = entry.partition("=")
            if not separator or not token or not tenant:
                print(f"error: bad --token {entry!r} (expected TOKEN=TENANT)", file=sys.stderr)
                return 2
            tokens[token] = tenant
    # The access log goes through stdlib logging (stderr), never print,
    # so piping the banner stays clean and levels filter server noise.
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    sample_interval = args.sample_interval if args.sample_interval > 0 else None
    try:
        daemon = PassDaemon(
            host=args.host,
            port=args.port,
            backend_url=args.store,
            tokens=tokens,
            slow_query_ms=args.slow_query_ms,
            sample_interval_s=sample_interval,
            alert_rules=args.alert_rules,
            metrics_port=args.metrics_port,
        )
    except (OSError, ValueError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    address = daemon.start()
    auth = f"{len(tokens)} token(s)" if tokens else "open (no auth)"
    # One banner line on stdout: scripts (and the subprocess test in
    # tests/obs/test_alerts.py) readline it for the bound address.  Metrics-endpoint facts go to the logger.
    if daemon.metrics_address is not None:
        logging.getLogger("repro.server").info(
            "metrics endpoint at http://%s:%d/metrics",
            daemon.metrics_address.host,
            daemon.metrics_address.port,
        )
    print(f"serving {args.store} at {address.url}  [{auth}]", file=out)
    out.flush()
    try:
        daemon.wait()
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        daemon.stop()
    return 0


def _format_top_snapshot(snapshot: dict, previous: Optional[dict], interval: float) -> str:
    """Render one ``metrics`` snapshot as the ``repro top`` screen."""
    lines = [
        f"daemon up {snapshot.get('uptime_s', 0.0):.1f}s   "
        f"tenants: {len(snapshot.get('tenants', {}))}"
    ]
    previous_tenants = (previous or {}).get("tenants", {})
    for tenant, facts in sorted(snapshot.get("tenants", {}).items()):
        lines.append(
            f"tenant {tenant}: {facts.get('active_subscriptions', 0)} "
            "active subscription(s)"
        )
        ops = facts.get("ops", {})
        if not ops:
            lines.append("  (no operations yet)")
            continue
        lines.append(
            f"  {'op':<22}{'count':>8}{'err':>6}{'rate/s':>9}"
            f"{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}"
        )
        before = previous_tenants.get(tenant, {}).get("ops", {})
        for op, stats in ops.items():
            if op in before and interval > 0:
                # Delta rate over the poll interval: what "now" looks like.
                rate = (stats["count"] - before[op]["count"]) / interval
            else:
                rate = stats.get("rate_per_s", 0.0)

            def _ms(value) -> str:
                return "-" if value is None else f"{value:.2f}"

            lines.append(
                f"  {op:<22}{stats['count']:>8}{stats['errors']:>6}{rate:>9.2f}"
                f"{_ms(stats.get('p50_ms')):>9}{_ms(stats.get('p95_ms')):>9}"
                f"{_ms(stats.get('p99_ms')):>9}"
            )
    slow = snapshot.get("slow_queries", [])
    if slow:
        lines.append(f"slow queries ({len(slow)}, newest last):")
        for entry in slow[-5:]:
            # The misestimate ratio is the "why": a big value means the
            # planner priced the query from a stale/wrong estimate.
            ratio = entry.get("misestimate")
            suffix = "" if ratio is None else f"  misestimate {ratio:.2f}x"
            lines.append(
                f"  [{entry['tenant']}] {entry['duration_ms']:.3f} ms{suffix}"
            )
    return "\n".join(lines)


def _introspection_url(args) -> str:
    """Fold ``--token``/``--tenant`` into a daemon URL's query string."""
    url = args.url
    extras = [
        f"{key}={value}"
        for key, value in (("token", args.token), ("tenant", args.tenant))
        if value is not None
    ]
    if extras:
        url = url + ("&" if "?" in url else "?") + "&".join(extras)
    return url


def _cmd_top(args, out) -> int:
    """Poll a daemon's ``metrics`` op and render it, ``top``-style."""
    import json
    import time as _time

    from repro.errors import NetworkError, PassError

    url = _introspection_url(args)

    def _connect():
        client = connect(url)
        if not hasattr(client, "daemon_metrics"):
            client.close()
            raise PassError(f"{args.url!r} is not a pass:// daemon URL")
        return client

    try:
        client = _connect()
    except (NetworkError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    iterations = 1 if args.once else args.iterations
    previous = None
    shown = 0
    retries_left = max(0, args.reconnect_attempts)
    try:
        while True:
            try:
                snapshot = client.daemon_metrics()
            except NetworkError as error:
                # The daemon restarted (or dropped us) mid-watch: keep
                # the screen alive and re-dial with capped backoff.
                if retries_left <= 0:
                    print(f"error: daemon went away: {error}", file=sys.stderr)
                    return 1
                attempt = args.reconnect_attempts - retries_left
                retries_left -= 1
                delay = min(10.0, max(0.1, args.interval) * (2**attempt))
                print(
                    f"connection lost ({error}); retrying in {delay:.1f}s",
                    file=sys.stderr,
                )
                _time.sleep(delay)
                client.close()
                try:
                    client = _connect()
                except (NetworkError, PassError):
                    continue
                previous = None  # rates across a restart are meaningless
                continue
            retries_left = max(0, args.reconnect_attempts)
            if args.json:
                print(json.dumps(snapshot, sort_keys=True), file=out)
            else:
                if shown:
                    print(file=out)
                print(_format_top_snapshot(snapshot, previous, args.interval), file=out)
            out.flush()
            shown += 1
            previous = snapshot
            if iterations is not None and shown >= iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_healthcheck(args, out) -> int:
    """Probe a daemon's ``health`` op; map its status to an exit code."""
    import json

    from repro.errors import NetworkError, PassError

    try:
        client = connect(_introspection_url(args))
    except (NetworkError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    try:
        report = client.health()
    except (NetworkError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        client.close()
    if args.json:
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        print(f"status: {report['status']}", file=out)
        for name, check in sorted(report.get("checks", {}).items()):
            marker = "ok" if check.get("ok") else ("FAIL" if check.get("critical") else "warn")
            print(f"  [{marker:>4}] {name}: {check.get('detail', '')}", file=out)
    return {"ok": 0, "degraded": 1, "failing": 2}.get(report.get("status"), 3)


def _cmd_alerts(args, out) -> int:
    """Show a daemon's alert rules, firing alerts and transitions."""
    import json

    from repro.errors import NetworkError, PassError

    try:
        client = connect(_introspection_url(args))
    except (NetworkError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if not hasattr(client, "alerts"):
            print(f"error: {args.url!r} is not a pass:// daemon URL", file=sys.stderr)
            return 2
        snapshot = client.alerts()
    except (NetworkError, PassError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.json:
        print(json.dumps(snapshot, sort_keys=True), file=out)
        return 0
    if not snapshot.get("enabled"):
        print(f"alerts disabled: {snapshot.get('reason', 'unknown')}", file=out)
        return 0
    rules = snapshot.get("rules", [])
    firing = snapshot.get("firing", [])
    print(f"{len(rules)} rule(s), {len(firing)} firing", file=out)
    for rule in rules:
        status = rule.get("status", "ok")
        print(f"  [{status:>7}] {rule['name']}: {rule.get('condition', '')}", file=out)
    transitions = snapshot.get("transitions", [])
    if transitions:
        print(f"recent transitions ({len(transitions)}, newest last):", file=out)
        for entry in transitions[-10:]:
            print(
                f"  t={entry['t']:.1f} {entry['rule']}: "
                f"{entry['from']} -> {entry['to']} (value={entry['value']})",
                file=out,
            )
    return 0


def _cmd_trace(args, out) -> int:
    """Run a traced workload + query; export Chrome trace-event JSON."""
    import json

    from repro.obs import trace as tracing

    predicate, error = _build_explain_predicate(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tracing.enable()
    try:
        with tracing.span("cli.trace", attrs={"domain": args.domain, "store": args.store}):
            with _build_client(args.domain, args.hours, args.seed, args.store) as (_, client, *_):
                answer = client.query(predicate)
        collected = tracing.spans()
        payload = tracing.chrome_trace(collected)
    finally:
        tracing.disable()
    text = json.dumps(payload, indent=2)
    traces = {span.trace_id for span in collected}
    summary = (
        f"-- {len(collected)} span(s) in {len(traces)} trace(s); "
        f"query matched {answer.total} record(s)"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"{summary}; wrote {args.output}", file=out)
    else:
        print(text, file=out)
        print(summary, file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args, stray = parser.parse_known_args(argv)
    # argparse fills the ``predicates`` positional from one run of
    # arguments only, so a term typed after an option arrives here.
    if stray and "predicates" in args and not any(text.startswith("-") for text in stray):
        args.predicates += stray
    elif stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    try:
        code = args.run(args, out)
        out.flush()  # (inside the try: a closed pipe may surface only at this flush)
        return code
    except BrokenPipeError:
        # The reader stopped reading (``repro query ... | head -1``): end
        # quietly.  Standard output goes to the null device, so the
        # interpreter's own flush at exit does not raise a second time.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
