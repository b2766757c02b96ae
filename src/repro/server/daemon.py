"""The provenance service daemon.

:class:`PassDaemon` is an asyncio socket server exposing the complete
:class:`~repro.api.client.PassClient` surface over the
:mod:`repro.server.protocol` framing.  This module is lifecycle,
tenancy, connections and dispatch; *which* ops exist, what arguments
they take and who serves them is declared once in
:mod:`repro.server.ops`, and everything the daemon knows about how it
is doing lives in :mod:`repro.server.monitor`.  Design points:

* **One loop, one thread.**  All operation handling runs on the event
  loop thread, so the (thread-unsafe) stores never see concurrent
  access; concurrency between clients is interleaving at frame
  boundaries, exactly like a single-threaded network server over an
  embedded store.
* **One ordered, bounded transport per connection.**  Responses *and*
  subscription pushes are encoded and written to the connection's
  transport on the loop thread; transport writes are FIFO, so a client
  that calls ``flush_windows`` sees the window events pushed *before*
  the flush response -- the order an in-process consumer observes.  Each
  connection is an :class:`asyncio.Protocol` that splits frames in its
  read callback and dispatches them inline.  A peer that stops reading
  its replies stops being read (``pause_writing`` pauses reading); a
  subscriber with more than :data:`MAX_WRITE_BACKLOG_BYTES` of pushes
  unsent is shed; before ``hello`` a frame may announce at most
  :data:`MAX_PREAUTH_FRAME_BYTES` (``docs/SERVER.md`` § Bounds).
* **Tenants are separate stores.**  Each tenant name maps to its own
  ``connect(backend_url)`` client (and hence its own store, planner,
  closure index and subscription registry); no query, lineage walk or
  standing query can cross the namespace.
* **One dispatcher.**  Every request is looked up in the op table, has
  its arguments checked and decoded there, and is then either forwarded
  to the same-named façade method of the tenant's client, handed to one
  of the few ``_handle_<op>`` methods that need the connection or the
  job table, or answered by the monitor.
* **Async jobs.**  ``rebuild_index`` returns a ``task_id`` immediately
  and runs the closure rebuild as a loop task; ``task_status`` polls it
  (pending → running → completed/failed), mirroring service APIs whose
  index builds outlive an HTTP request.
* **Introspection.**  Every request is access-logged through the
  ``repro.server`` :mod:`logging` logger (op, tenant, duration, error
  code) and folded into the monitor's per-tenant telemetry; queries
  slower than ``slow_query_ms`` get the :class:`Explain` tree of the
  execution that was timed written to the slow-query log.  When the
  requester carries a trace context in its frame, the daemon's
  ``daemon.<op>`` span -- and everything the handler does beneath it --
  stitches onto the caller's trace tree.

The daemon can run embedded (``start()``/``stop()`` around a background
thread -- what the tests and benches do) or in the foreground
(``serve_forever()`` -- what ``repro serve`` does).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.registry import connect
from repro.errors import AuthError, PassError, ProtocolError, UnknownEntityError
from repro.obs import trace
from repro.server import ops, protocol
from repro.server.monitor import Monitor
from repro.server.protocol import WIRE_VERSION, encode_frame, error_to_wire, event_to_wire

__all__ = ["DaemonAddress", "PassDaemon"]

_LOGGER = logging.getLogger("repro.server")

#: unsent bytes above which a connection is shed rather than written to
MAX_WRITE_BACKLOG_BYTES = 4 * 1024 * 1024
#: the largest frame whose body is read before ``hello``
MAX_PREAUTH_FRAME_BYTES = 64 * 1024


@dataclass(frozen=True)
class DaemonAddress:
    """Where a running daemon listens."""

    host: str
    port: int

    @property
    def url(self) -> str:
        """The ``connect()`` URL of this daemon."""
        return f"pass://{self.host}:{self.port}"


class _Tenant:
    """One tenant namespace: its own client/store plus its job table."""

    def __init__(self, name: str, client) -> None:
        self.name = name
        self.client = client
        self.jobs: Dict[str, dict] = {}


class _Connection(asyncio.Protocol):
    """One client connection: its frames dispatched inline as they complete, auth, owned subscriptions.

    While the transport's write buffer is over its high-water mark the
    connection is not read, and frames already buffered wait too.
    """

    def __init__(self, daemon: "PassDaemon") -> None:
        self.daemon = daemon
        self.transport: Optional[asyncio.Transport] = None
        self.tenant: Optional[_Tenant] = None
        self.subscriptions: Dict[str, object] = {}
        self.closing = False
        #: resolved once the transport is gone (what shutdown waits on)
        self.closed = daemon._loop.create_future()
        self._received = bytearray()
        self._writing_paused = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.daemon._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closing = True
        self.daemon._drop_subscriptions(self)
        self.daemon._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._received += data
        self._read_frames()

    def pause_writing(self) -> None:
        self._writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        self.transport.resume_reading()
        self._read_frames()

    def _read_frames(self) -> None:
        """Dispatch every complete frame received, until writing pauses or the connection closes."""
        received, start = self._received, 0
        while not (self._writing_paused or self.closing) and len(received) - start >= 4:
            try:
                length = protocol.frame_length(received[start : start + 4])
                if self.tenant is None and length > MAX_PREAUTH_FRAME_BYTES:
                    raise ProtocolError(f"frame of {length} bytes precedes the 'hello'")
                end = start + 4 + length
                if len(received) < end:
                    break
                payload = protocol.decode_body(received[start + 4 : end])
            except ProtocolError as error:
                self.send({"id": None, "ok": False, "error": error_to_wire(error)})
                self.close()  # cannot trust the framing any more
                return
            start = end
            if not self.daemon._dispatch(self, payload):
                self.close()
                return
        del received[:start]

    def send(self, payload: dict) -> None:
        self.write(encode_frame(payload))

    def write(self, frame: bytes) -> None:
        """Hand one frame to the transport, or shed a peer too far behind on its reading."""
        if self.closing:
            return
        backlog = self.transport.get_write_buffer_size()
        if backlog > MAX_WRITE_BACKLOG_BYTES:  # before the write: any one legal frame fits
            self.close()
            self.daemon.monitor.record_shed(self.tenant.name if self.tenant else "-", backlog)
        else:
            self.transport.write(frame)

    def push_event(self, event) -> None:
        self.send({"push": "event", "event": event_to_wire(event)})

    def close(self) -> None:
        """Stop writing; flush first only if the peer is keeping up (else that wait has no end)."""
        self.closing = True
        if self.transport.get_write_buffer_size():
            self.transport.abort()
        else:
            self.transport.close()


class PassDaemon:
    """Serve one or many provenance stores to remote :mod:`pass://` clients.

    Parameters
    ----------
    host, port:
        Listen address; port ``0`` picks an ephemeral port (reported by
        the :class:`DaemonAddress` that :meth:`start` returns).
    backend_url:
        The ``connect()`` URL each tenant's store is opened with.
        ``memory://`` gives every tenant a private in-memory store;
        ``sqlite:///pass.db`` gives the default tenant that file and
        every other tenant a ``pass.db.<tenant>`` sibling.
    tokens:
        Optional auth table mapping token -> tenant name.  When given,
        every connection's first frame must present a known token and is
        bound to that token's tenant.  When ``None``, connections are
        unauthenticated and may name any tenant (default ``"default"``).
    slow_query_ms:
        When set, any ``query`` op slower than this many milliseconds
        has the :class:`Explain` tree of that execution written to the
        slow-query log (``repro.server`` logger, WARNING) and kept in
        the ring served by the ``metrics`` op.  ``None`` disables it.
    sample_interval_s:
        Wall-clock period of the background sampler that scrapes the
        daemon's telemetry instruments (per-tenant per-op call/error
        counters and latency histograms, subscription counts, connection
        count, trace-ring drops) into the in-process
        :class:`~repro.obs.timeseries.TimeSeriesStore`.  Defaults to 1s
        -- cheap enough that the traced ``pass://`` overhead gate holds
        with it on.  ``None`` disables history (and alerting).
    timeseries_retention:
        Slots each series retains (default 600 = 10 min at 1s).
    alert_rules:
        Alert rules (a JSON file path, a parsed list, or
        :class:`~repro.obs.alerts.AlertRule` objects) evaluated against
        the time-series on every sampler tick; transitions are logged
        and served by the ``alerts`` wire op.
    metrics_port:
        When set, also listen on this plain TCP port with a minimal
        HTTP responder: ``GET /metrics`` answers the OpenMetrics text
        exposition, ``GET /health`` the health report as JSON (503 when
        failing) -- external scrapers need no client library.  Port 0
        picks an ephemeral port (see :attr:`metrics_address`).  The
        endpoint is an operator surface: it is not token-authed and
        shows every tenant's series.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend_url: str = "memory://",
        tokens: Optional[Dict[str, str]] = None,
        slow_query_ms: Optional[float] = None,
        sample_interval_s: Optional[float] = 1.0,
        timeseries_retention: int = 600,
        alert_rules=None,
        metrics_port: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.backend_url = backend_url
        self.tokens = dict(tokens) if tokens else None
        self.slow_query_ms = slow_query_ms
        self.metrics_port = metrics_port
        self.metrics_address: Optional[DaemonAddress] = None
        self.address: Optional[DaemonAddress] = None
        self._tenants: Dict[str, _Tenant] = {}
        self._connections: set = set()
        self.monitor = Monitor(
            self._connections,
            self._tenants,
            sample_interval_s=sample_interval_s,
            timeseries_retention=timeseries_retention,
            alert_rules=alert_rules,
        )
        #: the sampler's bounded history (``None`` when the sampler is off)
        self.timeseries = self.monitor.series
        self._job_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> DaemonAddress:
        """Serve from a background thread; returns once accepting connections."""
        if self._thread is not None:
            raise PassError("daemon already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="pass-daemon", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            error = self._startup_error
            self._startup_error = None
            raise PassError(f"daemon failed to start: {error}") from error
        return self.address

    def stop(self) -> None:
        """Graceful shutdown: goodbye pushes, closed stores; idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop = self._loop
        if loop is not None and self._shutdown is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        thread.join()

    def serve_forever(self) -> None:
        """Run the daemon in the calling thread until interrupted."""
        asyncio.run(self._main())

    def wait(self) -> None:
        """Block until the daemon stops (``repro serve``'s foreground wait)."""
        thread = self._thread
        if thread is not None:
            thread.join()

    def __enter__(self) -> "PassDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # startup failures reach start()
            self._startup_error = error
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await self._loop.create_server(lambda: _Connection(self), self.host, self.port)
        bound = self._server.sockets[0].getsockname()
        self.address = DaemonAddress(host=bound[0], port=bound[1])
        metrics_bound = await self.monitor.start(self.host, self.metrics_port)
        if metrics_bound is not None:
            self.metrics_address = DaemonAddress(*metrics_bound)
        self._started.set()
        try:
            await self._shutdown.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
            pass
        finally:
            await self._close_everything()

    async def _close_everything(self) -> None:
        await self.monitor.stop()
        self._server.close()
        connections = list(self._connections)
        for connection in connections:
            self._drop_subscriptions(connection)
            connection.send({"push": "goodbye", "reason": "daemon shutting down"})
            connection.close()
        # Wait for every transport to finish closing, so none is left for
        # asyncio.run() to tear down mid-flight.
        await asyncio.gather(*(c.closed for c in connections))
        await self._server.wait_closed()
        for tenant in self._tenants.values():
            tenant.client.close()
        self._tenants.clear()

    # ------------------------------------------------------------------
    # Tenants and auth
    # ------------------------------------------------------------------
    def _tenant_url(self, name: str) -> str:
        if name == "default":
            return self.backend_url
        if self.backend_url.startswith("sqlite:"):
            base, _, query = self.backend_url.partition("?")
            suffix = f"?{query}" if query else ""
            if base.endswith("/") or base.endswith(":"):
                return self.backend_url  # in-memory sqlite: private per connect
            return f"{base}.{name}{suffix}"
        return self.backend_url

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(name, connect(self._tenant_url(name)))
            self._tenants[name] = tenant
        return tenant

    def _authenticate(self, token: Optional[str], requested: Optional[str]) -> _Tenant:
        if self.tokens is None:
            name = requested or "default"
        else:
            if token is None:
                raise AuthError("this daemon requires a token")
            name = self.tokens.get(token)
            if name is None:
                raise AuthError("unknown token")
            if requested is not None and requested != name:
                raise AuthError(
                    f"token is not valid for tenant {requested!r}"
                )
        if not isinstance(name, str) or not name or "/" in name or "\\" in name:
            raise AuthError(f"malformed tenant name {name!r}")
        return self._tenant(name)

    # ------------------------------------------------------------------
    # Dispatch (runs on the loop thread)
    # ------------------------------------------------------------------
    def _dispatch(self, connection: _Connection, payload: dict) -> bool:
        """Handle one request frame; False closes the connection.

        The op is looked up in :data:`repro.server.ops.OPS`, its
        arguments are checked and decoded by the row, and the call runs
        under a ``daemon.<op>`` span parented on the trace context the
        request frame carried (if any), so a traced remote call yields
        one stitched tree across the wire.  Every request -- success or
        typed failure -- lands one access-log line and one telemetry
        sample.
        """
        request_id = payload.get("id")
        op = payload.get("op")
        args = payload.get("args") or {}
        started = time.perf_counter()
        served = False
        try:
            if not isinstance(op, str):
                raise ProtocolError(f"request lacks an op: {payload!r}")
            if not isinstance(args, dict):
                raise ProtocolError("request args must be an object")
            with trace.span(f"daemon.{op}", parent=payload.get("trace")):
                if op != "hello" and connection.tenant is None:
                    raise AuthError("first frame must be a 'hello' (auth handshake)")
                row = ops.OPS.get(op)
                if row is None:
                    raise ProtocolError(f"unknown op {op!r}")
                answer = self._serve(row, connection, row.decode_args(args))
                result = row.result.to_wire(answer)
            # Past here a failure is the answer's (too large, not JSON): still typed, not fatal.
            served = True
            frame = encode_frame({"id": request_id, "ok": True, "result": result})
        except Exception as error:  # typed envelope, never a traceback
            envelope = error_to_wire(error)
            # Observe before sending: once the client holds the answer,
            # the access-log line and telemetry sample already exist.
            self._observe_request(connection, op, started, envelope.get("code", "error"))
            connection.send({"id": request_id, "ok": False, "error": envelope})
            return served or not isinstance(error, (AuthError, ProtocolError))
        self._observe_request(connection, op, started, None, answer)
        connection.write(frame)
        return True

    def _serve(self, row: ops.Op, connection: _Connection, values: dict):
        """Route one decoded request to whoever the table says serves it."""
        if row.served_by == ops.FORWARD:
            served = getattr(connection.tenant.client, row.name)
            # ``supports_lineage`` is a property of the façade, not a method.
            return served(**values) if callable(served) else served
        if row.served_by == ops.MONITOR:
            # Open daemons show the whole house; token-authed connections
            # only see their own tenant (no cross-tenant traffic intel).
            scope = None if self.tokens is None else {connection.tenant.name}
            return getattr(self.monitor, row.name)(scope)
        return getattr(self, "_handle_" + row.name)(connection, **values)

    def _observe_request(
        self,
        connection: _Connection,
        op,
        started: float,
        error_code: Optional[str],
        answer=None,
    ) -> None:
        """Access-log one request and fold it into the telemetry state."""
        duration_ms = (time.perf_counter() - started) * 1000.0
        opname = op if isinstance(op, str) else "?"
        tenant = connection.tenant.name if connection.tenant is not None else "-"
        self.monitor.record(tenant, opname, duration_ms, error_code)
        _LOGGER.info(
            "op=%s tenant=%s duration_ms=%.3f status=%s",
            opname,
            tenant,
            duration_ms,
            error_code or "ok",
        )
        if (
            error_code is None
            and opname == "query"
            and self.slow_query_ms is not None
            and duration_ms >= self.slow_query_ms
        ):
            self._log_slow_query(tenant, getattr(answer, "explain", None), duration_ms)

    def _log_slow_query(self, tenant: str, explain, duration_ms: float) -> None:
        """Log the plan of the execution that was timed (never a re-run)."""
        misestimate: Optional[float] = None
        if explain is None:
            tree = "(explain unavailable: the target reports none with its results)"
        else:
            tree = explain.format()
            # The estimate error is the *why* behind most slow queries:
            # report it (symmetric, >= 1.0) next to the duration so an
            # operator sees a stale plan without reading the whole tree.
            ratio = (explain.estimated_rows + 1.0) / (explain.actual_rows + 1.0)
            misestimate = round(max(ratio, 1.0 / ratio), 2)
        self.monitor.record_slow(tenant, duration_ms, tree, misestimate=misestimate)
        _LOGGER.warning(
            "slow query: tenant=%s duration_ms=%.3f threshold_ms=%.3f misestimate=%s\n%s",
            tenant,
            duration_ms,
            self.slow_query_ms,
            "n/a" if misestimate is None else f"{misestimate:.2f}x",
            tree,
        )

    def _drop_subscriptions(self, connection: _Connection) -> None:
        if connection.tenant is None:
            return
        for subscription in connection.subscriptions.values():
            connection.tenant.client.unsubscribe(subscription)
        connection.subscriptions.clear()

    # ------------------------------------------------------------------
    # Connection-stateful ops (ops.CONNECTION rows; arguments arrive
    # checked and decoded, under their wire names)
    # ------------------------------------------------------------------
    def _handle_hello(self, connection: _Connection, token=None, tenant=None) -> dict:
        connection.tenant = self._authenticate(token, tenant)
        return {
            "wire_version": WIRE_VERSION,
            "tenant": connection.tenant.name,
            "target": f"remote+{connection.tenant.client.target}",
        }

    def _handle_ping(self, connection: _Connection) -> dict:
        return {"wire_version": WIRE_VERSION}

    def _handle_stats(self, connection: _Connection) -> dict:
        stats = dict(connection.tenant.client.stats())
        # The wire client reports the daemon-composed target name, so the
        # two ends of the connection agree on what "target" means.
        stats["target"] = f"remote+{connection.tenant.client.target}"
        stats["tenant"] = connection.tenant.name
        return stats

    def _handle_subscribe(
        self, connection: _Connection, query=None, window=None, origin=None, name=None
    ) -> dict:
        subscription = connection.tenant.client.subscribe(
            query, callback=connection.push_event, window=window, origin=origin, name=name
        )
        connection.subscriptions[subscription.id] = subscription
        return subscription.stats()

    def _handle_subscribe_descendants(
        self, connection: _Connection, pname, origin=None, name=None
    ) -> dict:
        subscription = connection.tenant.client.subscribe_descendants(
            pname, callback=connection.push_event, origin=origin, name=name
        )
        connection.subscriptions[subscription.id] = subscription
        return subscription.stats()

    def _handle_unsubscribe(self, connection: _Connection, sub: str) -> bool:
        subscription = connection.subscriptions.pop(sub, None)
        if subscription is None:
            return False
        return connection.tenant.client.unsubscribe(subscription)

    def _handle_subscriptions(self, connection: _Connection) -> list:
        return [sub.stats() for sub in connection.subscriptions.values()]

    def _handle_rebuild_index(self, connection: _Connection, strategy=None) -> dict:
        tenant = connection.tenant
        task_id = f"task-{next(self._job_ids)}"
        job = {"task_id": task_id, "status": "pending"}
        tenant.jobs[task_id] = job
        self._loop.create_task(self._run_rebuild(tenant, job, strategy))
        return {"task_id": task_id, "status": "pending"}

    async def _run_rebuild(
        self, tenant: _Tenant, job: dict, strategy: Optional[str] = None
    ) -> None:
        job["status"] = "running"
        # Yield once so a fast poller can genuinely observe "running".
        await asyncio.sleep(0)
        try:
            job["stats"] = tenant.client.rebuild_lineage_index(strategy=strategy)
            job["status"] = "completed"
        except Exception as error:
            job["status"] = "failed"
            job["error"] = error_to_wire(error)

    def _handle_task_status(self, connection: _Connection, task_id: str) -> dict:
        job = connection.tenant.jobs.get(task_id)
        if job is None:
            raise UnknownEntityError(f"unknown task {task_id!r}")
        return dict(job)
