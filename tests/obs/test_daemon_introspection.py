"""Daemon introspection: access log, metrics op, slow queries, stitching."""

from __future__ import annotations

import logging

import pytest

from repro.api import Q, connect
from repro.obs import trace
from repro.sensors.workloads import TrafficWorkload
from repro.server import PassDaemon


@pytest.fixture(scope="module")
def workload_sets():
    workload = TrafficWorkload(seed=5, cities=("london",), stations_per_city=2)
    raw, derived = workload.all_sets(hours=0.25)
    return raw, derived


def _publish(client, workload_sets):
    raw, derived = workload_sets
    client.publish_many(raw + derived)
    client.refresh()


class TestAccessLog:
    def test_every_request_logs_op_tenant_duration_status(self, caplog, workload_sets):
        with PassDaemon() as daemon:
            with caplog.at_level(logging.INFO, logger="repro.server"):
                with connect(daemon.address.url) as client:
                    _publish(client, workload_sets)
                    client.query(Q.attr("city") == "london", limit=3)
                    client.stats()  # dispatch is sequential: query's line exists now
        lines = [record.getMessage() for record in caplog.records]
        query_lines = [line for line in lines if line.startswith("op=query ")]
        assert query_lines, f"no query access-log line in {lines}"
        assert "tenant=default" in query_lines[0]
        assert "duration_ms=" in query_lines[0]
        assert "status=ok" in query_lines[0]

    def test_failures_log_the_typed_error_code(self, caplog):
        with PassDaemon(tokens={"secret": "alpha"}) as daemon:
            with caplog.at_level(logging.INFO, logger="repro.server"):
                from repro.errors import AuthError

                with pytest.raises(AuthError):
                    connect(daemon.address.url)  # no token: hello is refused
        lines = [record.getMessage() for record in caplog.records]
        assert any("op=hello" in line and "status=auth" in line for line in lines), lines


class TestMetricsOp:
    def test_metrics_reports_rates_percentiles_and_subscriptions(self, workload_sets):
        with PassDaemon() as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                for _ in range(3):
                    client.query(Q.attr("city") == "london", limit=3)
                client.subscribe(Q.attr("city") == "london")
                snapshot = client.daemon_metrics()
        assert snapshot["uptime_s"] > 0
        default = snapshot["tenants"]["default"]
        assert default["active_subscriptions"] == 1
        query = default["ops"]["query"]
        assert query["count"] == 3
        assert query["errors"] == 0
        assert query["rate_per_s"] > 0
        assert query["p50_ms"] is not None
        assert query["p99_ms"] >= query["p50_ms"]

    def test_token_scoped_metrics_hide_other_tenants(self, workload_sets):
        tokens = {"ta": "alpha", "tb": "beta"}
        with PassDaemon(tokens=tokens) as daemon:
            url = daemon.address.url
            with connect(f"{url}?token=tb") as other:
                _publish(other, workload_sets)
            with connect(f"{url}?token=ta") as client:
                client.query(None, limit=1)
                snapshot = client.daemon_metrics()
        assert set(snapshot["tenants"]) == {"alpha"}

    def test_open_daemon_metrics_show_every_tenant(self, workload_sets):
        with PassDaemon() as daemon:
            url = daemon.address.url
            with connect(f"{url}?tenant=alpha") as first:
                _publish(first, workload_sets)
                with connect(f"{url}?tenant=beta") as second:
                    second.query(None, limit=1)
                    snapshot = first.daemon_metrics()
        assert {"alpha", "beta"} <= set(snapshot["tenants"])


class TestSlowQueryLog:
    def test_slow_queries_capture_the_explain_tree(self, caplog, workload_sets):
        with PassDaemon(slow_query_ms=0.0) as daemon:  # everything is "slow"
            with caplog.at_level(logging.INFO, logger="repro.server"):
                with connect(daemon.address.url) as client:
                    _publish(client, workload_sets)
                    client.query(Q.attr("city") == "london", limit=3)
                    snapshot = client.daemon_metrics()
        warnings = [
            record for record in caplog.records if record.levelno == logging.WARNING
        ]
        assert warnings, "no slow-query WARNING logged"
        message = warnings[0].getMessage()
        assert "slow query" in message
        assert "tenant=default" in message
        assert "duration:" in message  # the Explain tree rode along
        slow = snapshot["slow_queries"]
        assert slow and slow[0]["tenant"] == "default"
        assert slow[0]["duration_ms"] >= 0
        assert "rows" in slow[0]["explain"]

    def test_the_slow_query_log_does_not_run_the_query_again(self, workload_sets):
        with PassDaemon(slow_query_ms=0.0) as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                client.query(Q.attr("city") == "london", limit=3)
                stats = client.stats()
                slow = client.daemon_metrics()["slow_queries"]
        # The logged tree is the Explain of the execution that was timed,
        # so the store saw exactly one query (and one result-cache lookup).
        assert stats["store"]["queries"] == 1
        result_cache = stats["planner"]["feedback"]["result_cache"]
        assert result_cache["hits"] + result_cache["misses"] == 1
        assert slow[0]["misestimate"] >= 1.0

    def test_targets_without_an_explain_log_it_as_unavailable(self, workload_sets):
        with PassDaemon(backend_url="centralized://", slow_query_ms=0.0) as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                client.query(Q.attr("city") == "london", limit=3)
                slow = client.daemon_metrics()["slow_queries"]
        assert "explain unavailable" in slow[0]["explain"]
        assert slow[0]["misestimate"] is None

    def test_disabled_threshold_logs_nothing_slow(self, caplog, workload_sets):
        with PassDaemon() as daemon:  # slow_query_ms=None
            with caplog.at_level(logging.INFO, logger="repro.server"):
                with connect(daemon.address.url) as client:
                    _publish(client, workload_sets)
                    client.query(Q.attr("city") == "london", limit=3)
                    snapshot = client.daemon_metrics()
        assert snapshot["slow_queries"] == []
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]


class TestWireStitching:
    @pytest.fixture(autouse=True)
    def _tracing(self):
        trace.enable()
        trace.clear()
        yield
        trace.disable()
        trace.clear()

    def test_traced_query_yields_one_stitched_tree(self, workload_sets):
        # Embedded daemon: both sides of the socket share the process
        # tracer, so the full cross-wire tree lands in one buffer.
        with PassDaemon() as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                trace.clear()
                with trace.span("test.root"):
                    client.query(Q.attr("city") == "london", limit=3)
        spans = trace.drain()
        by_name = {}
        for item in spans:
            by_name.setdefault(item.name, []).append(item)
        assert len({item.trace_id for item in spans}) == 1, (
            f"spans split into multiple traces: {[s.name for s in spans]}"
        )
        (rpc,) = by_name["rpc.query"]
        (daemon_span,) = by_name["daemon.query"]
        # The daemon's handler span hangs off the caller's rpc span even
        # though it ran on another thread, via the wire-carried context.
        assert daemon_span.parent_id == rpc.span_id
        assert daemon_span.thread != rpc.thread
        # ... and the tenant store's execution nests beneath the handler.
        executor_spans = by_name.get("query.execute")
        assert executor_spans, f"no executor span in {sorted(by_name)}"
        assert executor_spans[0].attrs["path"]

    def test_untraced_wire_calls_carry_no_context(self, workload_sets):
        trace.disable()
        with PassDaemon() as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                client.query(Q.attr("city") == "london", limit=3)
        assert trace.spans() == []


class TestExplainDuration:
    def test_explain_duration_crosses_the_wire(self, workload_sets):
        with PassDaemon() as daemon:
            with connect(daemon.address.url) as client:
                _publish(client, workload_sets)
                explain = client.explain(Q.attr("city") == "london")
        assert explain.duration_ms > 0
        assert "duration:" in explain.format()

    def test_local_explain_measures_duration(self, workload_sets):
        with connect("memory://") as client:
            _publish(client, workload_sets)
            explain = client.explain(Q.attr("city") == "london")
        assert explain.duration_ms > 0
