"""Alert rules: loading, the rule state machine, and the live daemon e2e."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import AlertEngine, AlertRule, Histogram, TimeSeriesStore, load_rules

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "alerts.json")


def _threshold(**overrides):
    raw = {
        "name": "r",
        "kind": "threshold",
        "series": "g",
        "stat": "latest",
        "op": ">",
        "value": 10.0,
    }
    raw.update(overrides)
    return raw


class TestLoadRules:
    def test_loads_the_checked_in_example_file(self):
        rules = load_rules(EXAMPLES)
        assert [r.name for r in rules] == [
            "query-p99-high",
            "query-rate-spike",
            "publish-slo-burn",
        ]
        assert rules[0].kind == "threshold"
        assert rules[2].kind == "burn_rate"
        assert rules[2].objective == 0.999

    def test_accepts_a_dict_with_rules_key_or_a_list(self):
        assert len(load_rules({"rules": [_threshold()]})) == 1
        assert len(load_rules([_threshold()])) == 1

    def test_duplicate_names_are_refused(self):
        with pytest.raises(ConfigurationError):
            load_rules([_threshold(), _threshold()])

    def test_bad_shapes_are_refused(self):
        with pytest.raises(ConfigurationError):
            load_rules([{"kind": "threshold"}])  # no name
        with pytest.raises(ConfigurationError):
            load_rules([_threshold(kind="sorcery")])
        with pytest.raises(ConfigurationError):
            load_rules([_threshold(op="!=")])
        with pytest.raises(ConfigurationError):
            load_rules([_threshold(stat="p42")])
        with pytest.raises(ConfigurationError):
            load_rules([{"name": "b", "kind": "burn_rate", "errors": "e"}])  # no total

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_rules(str(tmp_path / "nope.json"))

    def test_describe_renders_the_condition(self):
        rule = load_rules([_threshold(stat="p99", series="q.ms", value=250.0)])[0]
        assert "p99(q.ms) > 250.0" == rule.describe()["condition"]


class TestStateMachine:
    def _engine(self, **overrides):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        rules = load_rules([_threshold(**overrides)])
        return store, AlertEngine(store, rules)

    def test_threshold_fires_and_resolves(self):
        store, engine = self._engine()
        store.observe_gauge("g", 0.0, 5.0)
        engine.evaluate(0.0)
        assert engine.firing() == []
        store.observe_gauge("g", 1.0, 50.0)
        engine.evaluate(1.0)
        assert engine.firing() == ["r"]
        store.observe_gauge("g", 2.0, 5.0)
        engine.evaluate(2.0)
        assert engine.firing() == []
        assert [t["to"] for t in engine.transitions] == ["firing", "resolved"]

    def test_for_s_requires_a_sustained_breach(self):
        store, engine = self._engine(for_s=2)
        for t in range(2):
            store.observe_gauge("g", float(t), 50.0)
            engine.evaluate(float(t))
            assert engine.firing() == []  # breached but not held long enough
        store.observe_gauge("g", 2.0, 50.0)
        engine.evaluate(2.0)
        assert engine.firing() == ["r"]
        states = [t["to"] for t in engine.transitions]
        assert states == ["pending", "firing"]

    def test_a_blip_resets_the_hold_timer(self):
        store, engine = self._engine(for_s=2)
        store.observe_gauge("g", 0.0, 50.0)
        engine.evaluate(0.0)
        store.observe_gauge("g", 1.0, 1.0)  # dips back under
        engine.evaluate(1.0)
        store.observe_gauge("g", 2.0, 50.0)
        engine.evaluate(2.0)
        assert engine.firing() == []  # hold restarted at t=2

    def test_missing_series_never_fires(self):
        _, engine = self._engine(series="ghost")
        engine.evaluate(0.0)
        assert engine.firing() == []
        assert list(engine.transitions) == []

    def test_rate_stat_on_a_counter_series(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        rules = load_rules(
            [_threshold(stat="rate", series="c", value=5.0, window_s=10)]
        )
        engine = AlertEngine(store, rules)
        for t in range(4):
            store.observe_counter("c", float(t), float(t * 10))
        engine.evaluate(3.0)
        assert engine.firing() == ["r"]

    def test_histogram_quantile_stat(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        rules = load_rules(
            [_threshold(stat="p99", series="ms", value=100.0, window_s=60)]
        )
        engine = AlertEngine(store, rules)
        histogram = Histogram("ms")
        for _ in range(100):
            histogram.observe(300.0)
        store.observe_histogram("ms", 0.0, histogram.state())
        engine.evaluate(0.0)
        assert engine.firing() == ["r"]

    def test_burn_rate_measures_budget_multiples(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        rules = load_rules(
            [
                {
                    "name": "burn",
                    "kind": "burn_rate",
                    "errors": "op.errors",
                    "total": "op.calls",
                    "objective": 0.999,
                    "threshold": 5.0,
                    "window_s": 60,
                }
            ]
        )
        engine = AlertEngine(store, rules)
        # 1% errors against a 0.1% budget: burning at 10x, over the 5x bar.
        for t in range(4):
            store.observe_counter("op.calls", float(t), float(t * 1000))
            store.observe_counter("op.errors", float(t), float(t * 10))
        engine.evaluate(3.0)
        assert engine.firing() == ["burn"]
        snapshot = engine.snapshot()
        burn = snapshot["rules"][0]
        assert burn["status"] == "firing"
        assert burn["value"] == pytest.approx(10.0)

    def test_firing_transitions_log_at_warning(self, caplog):
        store, engine = self._engine()
        store.observe_gauge("g", 0.0, 50.0)
        with caplog.at_level(logging.INFO, logger="repro.obs.alerts"):
            engine.evaluate(0.0)
            store.observe_gauge("g", 1.0, 1.0)
            engine.evaluate(1.0)
        levels = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert any(lvl == "WARNING" and "-> firing" in msg for lvl, msg in levels)
        assert any(lvl == "INFO" and "-> resolved" in msg for lvl, msg in levels)

    def test_transition_ring_is_bounded(self):
        store = TimeSeriesStore(interval_s=1.0, retention=100)
        engine = AlertEngine(store, load_rules([_threshold()]), transition_capacity=4)
        for t in range(12):
            store.observe_gauge("g", float(t), 50.0 if t % 2 else 1.0)
            engine.evaluate(float(t))
        assert len(engine.transitions) == 4

    def test_snapshot_shape_is_wire_stable(self):
        store, engine = self._engine()
        engine.evaluate(0.0)
        snapshot = engine.snapshot()
        assert set(snapshot) == {"rules", "firing", "transitions"}
        entry = snapshot["rules"][0]
        assert {"name", "kind", "condition", "window_s", "for_s", "status"} <= set(entry)
        json.dumps(snapshot)


class TestServeEndToEnd:
    """Satellite: examples/alerts.json against a real ``repro serve``."""

    def test_example_rules_load_and_fire_against_a_live_daemon(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        # stderr goes to a file, not a pipe nobody drains while the daemon
        # logs; ``-u`` so a stray print() reaches stdout before SIGTERM.
        log_path = tmp_path / "serve.stderr"
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro", "serve",
                    "--port", "0",
                    "--sample-interval", "0.1",
                    "--alert-rules", os.path.abspath(EXAMPLES),
                    "--log-level", "info",
                    "--slow-query-ms", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=env,
            )
        try:
            banner = proc.stdout.readline()
            assert " at pass://" in banner, banner
            url = banner.split(" at ")[1].split()[0]
            from repro.api import connect

            with connect(url) as client:
                # Well over 20 queries/s, sustained while polling so the
                # sampler sees the counter rising: trips
                # "query-rate-spike" (for_s=0).
                deadline = time.time() + 15.0
                snapshot = client.alerts()
                while time.time() < deadline:
                    for _ in range(30):
                        client.query(None, limit=1)
                    snapshot = client.alerts()
                    if "query-rate-spike" in snapshot.get("firing", []):
                        break
                    time.sleep(0.1)
                assert snapshot["enabled"] is True
                assert [r["name"] for r in snapshot["rules"]] == [
                    "query-p99-high",
                    "query-rate-spike",
                    "publish-slo-burn",
                ]
                assert "query-rate-spike" in snapshot["firing"]
                assert any(
                    t["rule"] == "query-rate-spike" and t["to"] == "firing"
                    for t in snapshot["transitions"]
                )
                # The same series feed the exposition endpoint.
                export = client.metrics_export()
                assert "daemon_default_query_calls_total" in export["text"]
        finally:
            proc.terminate()
            rest_of_stdout, _ = proc.communicate(timeout=10)
        # The banner was the only thing on stdout: library code never prints.
        assert rest_of_stdout.strip() == ""
        # What a deployment's log collector sees: one structured access-log
        # line per request, and (at --slow-query-ms 0) each query's plan.
        logged = log_path.read_text(encoding="utf-8")
        assert "op=query tenant=default" in logged
        assert "op=alerts tenant=default" in logged
        assert "status=ok" in logged
        assert "slow query" in logged
