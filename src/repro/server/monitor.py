"""The daemon's monitoring half: telemetry, sampler, exposition, health, alerts.

:class:`Monitor` owns everything :class:`~repro.server.daemon.PassDaemon`
knows about *how it is doing*, as opposed to what it serves:

* per-tenant op counters and latency histograms plus the slow-query
  ring, fed by the dispatcher (:meth:`Monitor.record`,
  :meth:`Monitor.record_slow`) and by connections it sheds
  (:meth:`Monitor.record_shed`),
* the background sampler scraping those (and each tenant store's
  storage/planner counters) into a bounded
  :class:`~repro.obs.timeseries.TimeSeriesStore`, with alert rules
  evaluated on every tick,
* the five monitoring wire ops -- ``metrics``, ``metrics_export``,
  ``health``, ``alerts``, ``timeseries`` -- each a method of that name
  taking the caller's tenant *scope* (``None`` on an open daemon: the
  whole house; ``{tenant}`` on a token-authed one: no cross-tenant
  traffic intel),
* the plain-HTTP ``/metrics`` + ``/health`` responder for scrapers that
  speak no wire protocol.

It reads the daemon's live connection set and tenant table (handed in by
reference) and runs entirely on the daemon's loop thread, so the dict
juggling needs no lock.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from collections import deque
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import Counter, Histogram, trace
from repro.obs.alerts import AlertEngine, load_rules
from repro.obs.export import OPENMETRICS_CONTENT_TYPE, openmetrics
from repro.obs.health import (
    closure_check,
    evaluate as evaluate_health,
    storage_check,
    subscription_check,
    trace_ring_check,
)
from repro.obs.timeseries import TimeSeriesStore

__all__ = ["Monitor"]

_LOGGER = logging.getLogger("repro.server")


def _series_visible(name: str, scope: Optional[set]) -> bool:
    """Tenant scoping for series names: ``daemon.<tenant>.*`` series
    belong to that tenant; everything else (``trace.*``,
    ``daemon.connections``) is global."""
    if scope is None or not name.startswith("daemon."):
        return True
    rest = name[len("daemon."):]
    if "." not in rest:
        return True
    return rest.split(".", 1)[0] in scope


def _visible_names(store: TimeSeriesStore, scope: Optional[set]) -> Optional[list]:
    """The series names ``scope`` may read; ``None`` means all of them."""
    if scope is None:
        return None
    return [name for name in store.names() if _series_visible(name, scope)]


class Monitor:
    """Introspection state and endpoints of one daemon (see module docstring)."""

    def __init__(
        self,
        connections: set,
        tenants: Dict[str, object],
        sample_interval_s: Optional[float],
        timeseries_retention: int,
        alert_rules,
    ) -> None:
        if sample_interval_s is not None and sample_interval_s <= 0:
            raise ConfigurationError("sample_interval_s must be positive")
        self._connections = connections
        self._tenants = tenants
        self.sample_interval_s = sample_interval_s
        self.series: Optional[TimeSeriesStore] = (
            TimeSeriesStore(interval_s=sample_interval_s, retention=timeseries_retention)
            if sample_interval_s is not None
            else None
        )
        rules = load_rules(alert_rules) if alert_rules else []
        if rules and self.series is None:
            raise ConfigurationError("alert rules need the sampler (sample_interval_s)")
        self.alert_engine: Optional[AlertEngine] = (
            AlertEngine(self.series, rules) if rules else None
        )
        self.started = time.monotonic()
        #: tenant -> op -> (calls, errors, latency histogram)
        self._ops: Dict[str, Dict[str, tuple]] = {}
        self._slow: deque = deque(maxlen=64)
        self._trace_check = trace_ring_check()
        self._sampler_task: Optional[asyncio.Task] = None
        self._http_server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Fed by the dispatcher
    # ------------------------------------------------------------------
    def record(
        self, tenant: str, op: str, duration_ms: float, error_code: Optional[str]
    ) -> None:
        ops = self._ops.setdefault(tenant, {})
        entry = ops.get(op)
        if entry is None:
            entry = ops[op] = (
                Counter(f"daemon.{op}"),
                Counter(f"daemon.{op}.errors"),
                Histogram(f"daemon.{op}.ms"),
            )
        calls, errors, latency = entry
        calls.inc()
        if error_code is not None:
            errors.inc()
        latency.observe(duration_ms)

    def record_slow(
        self,
        tenant: str,
        duration_ms: float,
        explain: str,
        misestimate: Optional[float] = None,
    ) -> None:
        self._slow.append(
            {
                "tenant": tenant,
                "duration_ms": round(duration_ms, 3),
                "explain": explain,
                # How far off the planner's estimate was (>= 1.0, either
                # direction); None when the explain was unavailable.
                "misestimate": misestimate,
            }
        )

    def record_shed(self, tenant: str, backlog_bytes: int) -> None:
        """A connection dropped for not reading its pushes: counted as a
        failed ``shed`` row of the tenant's op table, so it is served,
        sampled and alertable like any op."""
        self.record(tenant, "shed", 0.0, "slow_consumer")
        _LOGGER.warning(
            "shed slow consumer: tenant=%s backlog_bytes=%d (it stopped reading its pushes)",
            tenant,
            backlog_bytes,
        )

    # ------------------------------------------------------------------
    # Lifecycle (on the daemon's loop)
    # ------------------------------------------------------------------
    async def start(self, host: str, metrics_port: Optional[int]) -> Optional[Tuple[str, int]]:
        """Start the sampler and, when asked, the HTTP endpoint.

        Returns the endpoint's bound ``(host, port)``, or ``None``.
        """
        bound = None
        if metrics_port is not None:
            self._http_server = await asyncio.start_server(self._serve_http, host, metrics_port)
            bound = self._http_server.sockets[0].getsockname()[:2]
        if self.series is not None:
            self._sampler_task = asyncio.get_running_loop().create_task(self._sampler())
        return bound

    async def stop(self) -> None:
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None

    # ------------------------------------------------------------------
    # Background sampler
    # ------------------------------------------------------------------
    async def _sampler(self) -> None:
        """Scrape telemetry into the time-series store every interval.

        Runs on the loop thread (an async task), so it reads the same
        single-threaded telemetry state the dispatch path writes -- no
        locks, no copies beyond the instrument snapshots themselves.
        """
        while True:
            await asyncio.sleep(self.sample_interval_s)
            try:
                self.sample_tick(time.time())
            except Exception:  # the sampler must never die mid-serve
                _LOGGER.exception("sampler tick failed")

    def sample_tick(self, now: float) -> None:
        store = self.series
        store.observe_gauge("daemon.connections", now, len(self._connections))
        store.observe_counter(
            "trace.spans_dropped", now, trace.ring_counters()["trace.spans_dropped"]
        )
        for tenant_name, count in self._subscription_counts().items():
            store.observe_gauge(f"daemon.{tenant_name}.subscriptions", now, count)
        for tenant_name, ops in self._ops.items():
            for op, (calls, errors, latency) in ops.items():
                prefix = f"daemon.{tenant_name}.{op}"
                store.observe_counter(prefix + ".calls", now, calls.value)
                store.observe_counter(prefix + ".errors", now, errors.value)
                store.observe_histogram(prefix + ".ms", now, latency.state())
        for tenant_name, tenant in self._tenants.items():
            tenant_store = getattr(tenant.client, "store", None)
            if tenant_store is None:
                continue
            snapshot = tenant_store.storage_snapshot()
            prefix = f"daemon.{tenant_name}.storage"
            store.observe_gauge(prefix + ".shards", now, snapshot["shards"])
            store.observe_gauge(prefix + ".records", now, snapshot["records"])
            for key in ("group_commits", "parallel_scans"):
                store.observe_counter(f"{prefix}.{key}", now, snapshot[key])
            for entry in snapshot["per_shard"]:
                store.observe_gauge(
                    f"{prefix}.shard{entry['shard']:02d}.records", now, entry["records"]
                )
            record_cache = snapshot["record_cache"]
            store.observe_gauge(prefix + ".record_cache.entries", now, record_cache["entries"])
            for key in ("hits", "misses", "evictions"):
                store.observe_counter(f"{prefix}.record_cache.{key}", now, record_cache[key])
            # The feedback collector's result-cache effectiveness, per tenant.
            hits = tenant_store.feedback.snapshot()["result_cache"]["hits"]
            store.observe_counter(f"daemon.{tenant_name}.planner.result_cache_hits", now, hits)
        if self.alert_engine is not None:
            try:
                self.alert_engine.evaluate(now)
            except Exception:  # a bad rule must not kill sampling
                _LOGGER.exception("alert evaluation failed")

    def _subscription_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for connection in self._connections:
            if connection.tenant is not None:
                counts[connection.tenant.name] = counts.get(
                    connection.tenant.name, 0
                ) + len(connection.subscriptions)
        return counts

    # ------------------------------------------------------------------
    # The monitoring wire ops (method name == op name)
    # ------------------------------------------------------------------
    def metrics(self, scope: Optional[set]) -> dict:
        """Per-tenant op table, subscription counts and the slow-query ring."""
        uptime = max(time.monotonic() - self.started, 1e-9)
        subscriptions = self._subscription_counts()
        visible: Dict[str, dict] = {}
        for name in sorted(set(self._ops) | set(subscriptions)):
            if scope is not None and name not in scope:
                continue
            blocks: Dict[str, dict] = {}
            for op, (calls, errors, latency) in sorted(self._ops.get(name, {}).items()):
                timing = latency.snapshot()
                blocks[op] = {
                    "count": calls.value,
                    "errors": errors.value,
                    "rate_per_s": calls.value / uptime,
                    "mean_ms": timing["mean"],
                    "p50_ms": timing["p50"],
                    "p95_ms": timing["p95"],
                    "p99_ms": timing["p99"],
                }
            visible[name] = {
                "ops": blocks,
                "active_subscriptions": subscriptions.get(name, 0),
            }
        slow = [
            dict(entry) for entry in self._slow if scope is None or entry["tenant"] in scope
        ]
        return {"uptime_s": uptime, "tenants": visible, "slow_queries": slow}

    def metrics_export(self, scope: Optional[set]) -> dict:
        """The OpenMetrics exposition of the retained series."""
        store = self.series if self.series is not None else TimeSeriesStore()
        extra = {
            "daemon.uptime_s": time.monotonic() - self.started,
            "daemon.connections": len(self._connections),
        }
        return {
            "content_type": OPENMETRICS_CONTENT_TYPE,
            "text": openmetrics(store, extra_gauges=extra, names=_visible_names(store, scope)),
        }

    def health(self, scope: Optional[set]) -> dict:
        checks = [self._trace_check]
        for name in sorted(self._tenants):
            if scope is not None and name not in scope:
                continue
            store = getattr(self._tenants[name].client, "store", None)
            if store is not None:
                checks.append(storage_check(store, name=f"storage:{name}"))
                checks.append(closure_check(store, name=f"closure:{name}"))

        def visible_subscriptions():
            out = []
            for connection in self._connections:
                if connection.tenant is None:
                    continue
                if scope is not None and connection.tenant.name not in scope:
                    continue
                out.extend(connection.subscriptions.values())
            return out

        checks.append(subscription_check(visible_subscriptions))
        return evaluate_health(checks)

    def alerts(self, scope: Optional[set]) -> dict:
        engine = self.alert_engine
        if engine is None:
            return {"enabled": False, "reason": "no alert rules loaded"}
        snapshot = engine.snapshot()
        if scope is not None:
            allowed = set()
            for rule in engine.rules:
                series = (
                    [rule.series] if rule.kind == "threshold" else [rule.errors, rule.total]
                )
                if all(_series_visible(s, scope) for s in series if s):
                    allowed.add(rule.name)
            snapshot["rules"] = [r for r in snapshot["rules"] if r["name"] in allowed]
            snapshot["firing"] = [n for n in snapshot["firing"] if n in allowed]
            snapshot["transitions"] = [
                t for t in snapshot["transitions"] if t["rule"] in allowed
            ]
        snapshot["enabled"] = True
        return snapshot

    def timeseries(self, scope: Optional[set]) -> dict:
        if self.series is None:
            return {"enabled": False, "reason": "sampler disabled"}
        snapshot = self.series.snapshot(names=_visible_names(self.series, scope))
        snapshot["enabled"] = True
        return snapshot

    # ------------------------------------------------------------------
    # The plain-HTTP endpoint (an operator surface: unauthenticated,
    # shows every tenant's series)
    # ------------------------------------------------------------------
    async def _serve_http(self, reader, writer) -> None:
        """A deliberately tiny HTTP/1.1 responder for external scrapers."""
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            while True:  # consume headers up to the blank line
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1].split("?", 1)[0] if len(parts) >= 2 else "/"
            if path in ("/", "/metrics"):
                status = "200 OK"
                content_type = OPENMETRICS_CONTENT_TYPE
                body = self.metrics_export(None)["text"].encode("utf-8")
            elif path == "/health":
                report = self.health(None)
                status = "200 OK" if report["status"] != "failing" else "503 Service Unavailable"
                content_type = "application/json"
                body = json.dumps(report).encode("utf-8")
            else:
                status = "404 Not Found"
                content_type = "text/plain"
                body = b"not found\n"
            head = (
                f"HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
