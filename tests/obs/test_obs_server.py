"""The daemon's monitoring surface: sampler, wire ops, HTTP, sim parity."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.api import Q, connect
from repro.core import ProvenanceRecord, Timestamp, TupleSet
from repro.errors import ConfigurationError
from repro.server import PassDaemon

RULES = [
    {
        "name": "query-rate-spike",
        "kind": "threshold",
        "series": "daemon.default.query.calls",
        "stat": "rate",
        "op": ">",
        "value": 5.0,
        "window_s": 30,
        "for_s": 0,
    }
]


def _wait_for(predicate, timeout=10.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(interval)
    return predicate()


class TestSampler:
    def test_sampler_builds_per_op_series(self):
        with PassDaemon(sample_interval_s=0.05) as daemon:
            with connect(daemon.address.url) as client:
                for _ in range(5):
                    client.query(None, limit=1)

                def sampled():
                    names = daemon.timeseries.names()
                    return "daemon.default.query.calls" in names and names

                names = _wait_for(sampled)
        assert "daemon.default.query.calls" in names
        assert "daemon.default.query.ms" in names
        assert "daemon.connections" in names
        assert "trace.spans_dropped" in names
        assert daemon.timeseries.kind("daemon.default.query.ms") == "histogram"

    def test_sampler_emits_the_record_cache_series(self, tmp_path):
        """The durable store's decoded-record cache is visible per tenant:
        hits rise as a repeated lookup is served from it."""
        url = f"sqlite:///{tmp_path}/pass.db"
        with PassDaemon(backend_url=url, sample_interval_s=0.05) as daemon:
            with connect(daemon.address.url) as client:
                record = ProvenanceRecord({"sensor": "cam-1", "window_start": Timestamp(0.0)})
                pname = client.publish(TupleSet([], record)).first()
                for _ in range(3):
                    client.describe_record(pname)
                prefix = "daemon.default.storage.record_cache."

                def sampled():
                    point = daemon.timeseries.latest(prefix + "hits")
                    return point is not None and point[1] >= 3

                assert _wait_for(sampled)
                names = daemon.timeseries.names()
        assert {prefix + key for key in ("entries", "hits", "misses", "evictions")} <= set(names)
        assert daemon.timeseries.kind(prefix + "entries") == "gauge"
        assert daemon.timeseries.kind(prefix + "hits") == "counter"

    def test_sampler_off_disables_timeseries_and_alerts(self):
        with PassDaemon(sample_interval_s=None) as daemon:
            with connect(daemon.address.url) as client:
                ts = client.timeseries()
                alerts = client.alerts()
        assert ts == {"enabled": False, "reason": "sampler disabled"}
        assert alerts["enabled"] is False

    def test_alert_rules_without_a_sampler_are_refused(self):
        with pytest.raises(ConfigurationError):
            PassDaemon(sample_interval_s=None, alert_rules=RULES)


class TestWireOps:
    def test_metrics_export_serves_openmetrics_text(self):
        with PassDaemon(sample_interval_s=0.05) as daemon:
            with connect(daemon.address.url) as client:
                client.query(None, limit=1)
                export = _wait_for(
                    lambda: (e := client.metrics_export())
                    and "daemon_default_query_calls_total" in e["text"]
                    and e
                )
        assert export["content_type"].startswith("application/openmetrics-text")
        assert export["text"].rstrip().endswith("# EOF")

    def test_health_op_reports_per_tenant_checks(self):
        with PassDaemon() as daemon:
            with connect(daemon.address.url) as client:
                report = client.health()
        assert report["status"] == "ok"
        assert {"storage:default", "closure:default", "subscriptions", "trace-ring"} <= set(
            report["checks"]
        )

    def test_alert_rules_evaluate_on_the_tick(self):
        with PassDaemon(sample_interval_s=0.05, alert_rules=RULES) as daemon:
            with connect(daemon.address.url) as client:

                def drive_until_firing():
                    # Keep load flowing so the sampler sees the counter
                    # *rising*; a finished burst rates at zero.
                    for _ in range(20):
                        client.query(None, limit=1)
                    s = client.alerts()
                    return s if "query-rate-spike" in s.get("firing", []) else None

                snapshot = drive_until_firing() or _wait_for(drive_until_firing)
        assert snapshot["enabled"] is True
        assert "query-rate-spike" in snapshot["firing"]

    def test_timeseries_op_serves_the_snapshot_schema(self):
        with PassDaemon(sample_interval_s=0.05) as daemon:
            with connect(daemon.address.url) as client:
                client.query(None, limit=1)
                snapshot = _wait_for(
                    lambda: (s := client.timeseries()) and s.get("series") and s
                )
        assert snapshot["enabled"] is True
        assert snapshot["interval_s"] == pytest.approx(0.05)
        entry = snapshot["series"]["daemon.default.query.calls"]
        assert entry["kind"] == "counter"
        assert entry["points"]

    def test_token_scoping_hides_other_tenants_series(self):
        tokens = {"ta": "alpha", "tb": "beta"}
        with PassDaemon(tokens=tokens, sample_interval_s=0.05) as daemon:
            url = daemon.address.url
            with connect(f"{url}?token=tb") as other:
                other.query(None, limit=1)
            with connect(f"{url}?token=ta") as client:
                client.query(None, limit=1)
                export = _wait_for(
                    lambda: (e := client.metrics_export())
                    and "daemon_alpha_query_calls_total" in e["text"]
                    and e
                )
                snapshot = client.timeseries()
        assert "daemon_beta" not in export["text"]
        assert "daemon_connections" in export["text"]  # global series stay
        assert all(
            name.startswith(("daemon.alpha.", "trace.")) or name == "daemon.connections"
            for name in snapshot["series"]
        )


class TestMetricsHttpEndpoint:
    def _get(self, address, path):
        with socket.create_connection((address.host, address.port), timeout=5) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            sock.settimeout(5)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        return head.decode(), body.decode()

    def test_metrics_path_serves_openmetrics(self):
        with PassDaemon(sample_interval_s=0.05, metrics_port=0) as daemon:
            with connect(daemon.address.url) as client:
                client.query(None, limit=1)
                _wait_for(
                    lambda: "daemon.default.query.calls" in daemon.timeseries.names()
                )
            head, body = self._get(daemon.metrics_address, "/metrics")
        assert "200" in head.splitlines()[0]
        assert "application/openmetrics-text" in head
        assert "daemon_default_query_calls_total" in body
        assert body.rstrip().endswith("# EOF")

    def test_health_path_serves_json(self):
        with PassDaemon(metrics_port=0) as daemon:
            head, body = self._get(daemon.metrics_address, "/health")
        assert "200" in head.splitlines()[0]
        report = json.loads(body)
        assert report["status"] == "ok"

    def test_unknown_path_is_404(self):
        with PassDaemon(metrics_port=0) as daemon:
            head, _ = self._get(daemon.metrics_address, "/nope")
        assert "404" in head.splitlines()[0]


class TestServeSimParity:
    """Acceptance: a live daemon and a sim run emit the same schema."""

    def _sim_report(self):
        from repro.sim.workload import simulate_publish_workload

        sets = [
            TupleSet(
                [],
                ProvenanceRecord(
                    {
                        "domain": "traffic",
                        "city": "london",
                        "sequence": i,
                        "window_start": Timestamp(i * 60.0),
                        "window_end": Timestamp((i + 1) * 60.0),
                    }
                ),
            )
            for i in range(40)
        ]
        with connect("centralized://") as client:
            return simulate_publish_workload(
                client.model, sets, clients=4, sample_interval_ms=1000.0
            )

    def _daemon_snapshot(self):
        with PassDaemon(sample_interval_s=0.05) as daemon:
            with connect(daemon.address.url) as client:
                for _ in range(5):
                    client.query(Q.attr("city") == "london", limit=1)
                return _wait_for(
                    lambda: (s := client.timeseries())
                    and "daemon.default.query.ms" in s.get("series", {})
                    and s
                )

    def test_timeseries_snapshots_are_schema_identical(self):
        sim = self._sim_report().snapshot()["timeseries"]
        live = self._daemon_snapshot()
        live.pop("enabled")
        assert set(sim) == set(live) == {"interval_s", "retention", "series"}

        def shapes(snapshot):
            out = {}
            for name, entry in snapshot["series"].items():
                assert set(entry) == {"kind", "points"}
                point = entry["points"][0]
                assert len(point) == 2 and isinstance(point[0], (int, float))
                value_shape = (
                    tuple(sorted(point[1]))
                    if isinstance(point[1], dict)
                    else type(point[1]).__name__
                )
                out[entry["kind"]] = value_shape
            return out

        sim_shapes, live_shapes = shapes(sim), shapes(live)
        # Both runs produced all three kinds, with identical value shapes.
        for kind in ("counter", "gauge", "histogram"):
            assert kind in sim_shapes, f"sim emitted no {kind} series"
            assert kind in live_shapes, f"daemon emitted no {kind} series"
            assert sim_shapes[kind] == live_shapes[kind]

    def test_sim_series_render_through_the_same_exposition(self):
        from repro.obs import openmetrics

        report = self._sim_report()
        text = openmetrics(report.timeseries)
        assert "# TYPE ops_completed counter" in text
        assert 'op_latency_ms{quantile="0.99"}' in text
        assert text.endswith("# EOF\n")

    def test_same_rules_evaluate_against_simulated_deployments(self):
        from repro.sim.workload import simulate_publish_workload

        sets = [
            TupleSet([], ProvenanceRecord({"domain": "t", "sequence": i}))
            for i in range(30)
        ]
        rules = [
            {
                "name": "sim-op-rate",
                "kind": "threshold",
                "series": "ops.completed",
                "stat": "rate",
                "op": ">",
                "value": 0.0,
                "window_s": 3600,
                "for_s": 0,
            }
        ]
        with connect("centralized://") as client:
            report = simulate_publish_workload(
                client.model, sets, clients=4, alert_rules=rules
            )
        assert report.alerts is not None
        assert "sim-op-rate" in report.alerts["firing"]
