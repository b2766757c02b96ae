"""Observability smoke: one real ``repro serve`` process, end to end.

Starts the daemon as a subprocess (``--log-level info --slow-query-ms 0``
so every query is "slow"), drives a traced workload over ``pass://``,
then asserts the whole introspection surface actually worked:

* the client-side span tree exports as valid Chrome trace-event JSON and
  every span of the request shares one trace id,
* the ``metrics`` wire op answers with the tenant's op counters,
  latency percentiles and the slow-query ring,
* the daemon's stderr carries structured access-log lines (op, tenant,
  duration, status) and a slow-query WARNING with the Explain tree --
  and its stdout carries *only* the banner (library code never prints).

A second section gates the background sampler's scrape overhead: two
in-process daemons (sampler off vs. the default 1 s tick) serve the same
query loop, and the sampled daemon's median latency must stay within
budget of the bare one -- while actually having produced time-series,
an OpenMetrics exposition and a health report.

Run with:  python benchmarks/bench_obs.py
      or:  pytest benchmarks/bench_obs.py -s
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 10


def _start_daemon():
    """Launch ``repro serve`` on an ephemeral port; return (proc, url)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--log-level",
            "info",
            "--slow-query-ms",
            "0",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # A watchdog readline: if the banner never comes, kill and fail loud.
    timer = threading.Timer(STARTUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        banner = proc.stdout.readline()
    finally:
        timer.cancel()
    match = re.search(r"(pass://[\d.]+:\d+)", banner)
    if match is None:
        proc.kill()
        _, stderr = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        raise RuntimeError(f"no daemon banner (got {banner!r}); stderr:\n{stderr}")
    return proc, match.group(1)


def _traced_workload(url: str) -> tuple:
    """Publish + query + introspect over pass://; returns (doc, metrics, total)."""
    from repro.api import Q, connect
    from repro.obs import trace
    from repro.sensors.workloads import TrafficWorkload

    raw, derived = TrafficWorkload(seed=0).all_sets(hours=0.2)
    trace.enable()
    try:
        with trace.span("smoke.workload"):
            with connect(url) as client:
                client.publish_many(raw + derived)
                answer = client.query(Q.attr("city") == "london", limit=10)
                metrics = client.daemon_metrics()
        document = trace.chrome_trace()
    finally:
        trace.disable()
        trace.clear()
    return document, metrics, answer.total


def _check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)
        print(f"  FAILURE: {message}")


def run_smoke() -> int:
    proc, url = _start_daemon()
    print(f"[obs] daemon up at {url}")
    try:
        document, metrics, total = _traced_workload(url)
    finally:
        proc.terminate()
        try:
            stdout, stderr = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()

    failures: list = []

    # -- trace export ----------------------------------------------------
    text = json.dumps(document)
    parsed = json.loads(text)
    events = parsed.get("traceEvents", [])
    _check(total > 0, "query matched nothing", failures)
    _check(len(events) >= 3, f"expected >=3 spans, got {len(events)}", failures)
    _check(
        all({"name", "ph", "ts", "dur", "pid", "tid"} <= set(e) for e in events),
        "trace events missing required Chrome fields",
        failures,
    )
    trace_ids = {event["args"]["trace_id"] for event in events}
    _check(
        len(trace_ids) == 1,
        f"workload spans split across {len(trace_ids)} traces",
        failures,
    )
    rpc_spans = [e for e in events if e["name"].startswith("rpc.")]
    _check(bool(rpc_spans), "no rpc.* spans crossed the socket", failures)
    print(f"  trace: {len(events)} spans, one trace id, {len(rpc_spans)} rpc spans")

    # -- metrics op ------------------------------------------------------
    tenants = metrics.get("tenants", {})
    default = tenants.get("default", {})
    ops = default.get("ops", {})
    _check("query" in ops, f"metrics op missing query stats (got {sorted(ops)})", failures)
    if "query" in ops:
        _check(ops["query"]["count"] >= 1, "query count not recorded", failures)
        _check(ops["query"]["p95_ms"] is not None, "no query latency percentile", failures)
    _check(
        bool(metrics.get("slow_queries")),
        "slow-query ring empty despite --slow-query-ms 0",
        failures,
    )
    print(
        f"  metrics: {len(tenants)} tenant(s), query count "
        f"{ops.get('query', {}).get('count')}, "
        f"{len(metrics.get('slow_queries', []))} slow quer(ies)"
    )

    # -- daemon logs -----------------------------------------------------
    _check("op=query tenant=default" in stderr, "no query access-log line", failures)
    _check("op=metrics" in stderr, "no metrics access-log line", failures)
    _check("slow query" in stderr, "no slow-query WARNING", failures)
    banner_free = [line for line in stdout.splitlines() if line.strip()]
    _check(
        len(banner_free) <= 1,
        f"stdout carried more than the shutdown note: {banner_free}",
        failures,
    )
    access_lines = stderr.count("op=")
    print(f"  logs: {access_lines} access-log line(s) on stderr, stdout clean")
    return len(failures)


SCRAPE_OVERHEAD_BUDGET = 1.5  # sampled/bare median-latency ratio ceiling
SCRAPE_OPS = 600


def _median_query_ms(url: str, ops: int) -> float:
    from repro.api import connect

    with connect(url) as client:
        samples = []
        for _ in range(ops):
            started = time.perf_counter()
            client.query(None, limit=1)
            samples.append((time.perf_counter() - started) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def run_scrape_overhead() -> int:
    """The 1 s sampler tick must not tax the serving path."""
    import sys as _sys

    _sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.server import PassDaemon

    failures: list = []
    with PassDaemon(sample_interval_s=None) as daemon:
        bare_ms = _median_query_ms(daemon.address.url, SCRAPE_OPS)
    with PassDaemon(sample_interval_s=1.0) as daemon:
        sampled_ms = _median_query_ms(daemon.address.url, SCRAPE_OPS)
        # While we're here: the sampler must actually have sampled.
        # The query loop can finish inside the first 1 s interval, so
        # give the tick a moment to land before reading the store.
        deadline = time.time() + 5.0
        while not daemon.timeseries.names() and time.time() < deadline:
            time.sleep(0.05)
        names = daemon.timeseries.names()
        _check(
            "daemon.default.query.calls" in names,
            f"sampler produced no per-op series (got {names})",
            failures,
        )
        export = daemon.monitor.metrics_export(None)["text"]
        _check(
            "daemon_default_query_calls_total" in export
            and export.rstrip().endswith("# EOF"),
            "OpenMetrics exposition incomplete",
            failures,
        )
        health = daemon.monitor.health(None)
        _check(
            health["status"] == "ok",
            f"daemon unhealthy under benchmark load: {health}",
            failures,
        )
    ratio = sampled_ms / bare_ms if bare_ms > 0 else 1.0
    _check(
        ratio <= SCRAPE_OVERHEAD_BUDGET,
        f"sampler overhead {ratio:.2f}x exceeds {SCRAPE_OVERHEAD_BUDGET}x budget "
        f"(bare {bare_ms:.3f} ms, sampled {sampled_ms:.3f} ms)",
        failures,
    )
    print(
        f"  scrape overhead: bare {bare_ms:.3f} ms vs sampled {sampled_ms:.3f} ms "
        f"median ({ratio:.2f}x, budget {SCRAPE_OVERHEAD_BUDGET}x)"
    )
    return len(failures)


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_obs_smoke():
    """CI gate: serve + traced workload + access log + metrics op."""
    assert run_smoke() == 0


def test_scrape_overhead():
    """CI gate: the metrics sampler stays within its latency budget."""
    assert run_scrape_overhead() == 0


def main() -> int:
    started = time.perf_counter()
    failures = run_smoke()
    failures += run_scrape_overhead()
    elapsed = time.perf_counter() - started
    if failures:
        print(f"\n{failures} failure(s) in {elapsed:.1f}s")
        return 1
    print(f"\nok in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
