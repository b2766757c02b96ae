"""The ``pass://`` client: the façade protocol over a live daemon.

:class:`RemoteClient` speaks :mod:`repro.server.protocol` over a
blocking TCP socket.  A background reader thread demultiplexes the
inbound frame stream: response frames wake the caller waiting on that
request id, push frames are routed to the local
:class:`~repro.stream.subscription.Subscription` mirror they belong to
(callback or pull queue, exactly as in-process).  Because the daemon
writes every outbound frame to the connection's transport in order, on
one thread, a window event always arrives *before* the
``flush_windows`` response that caused it -- so the in-process
consumption idioms (``flush`` then ``drain``) work unchanged across the
socket.

Wire errors come back as stable codes and are re-raised as the same
:mod:`repro.errors` type the server caught; a vanished daemon surfaces
as :class:`~repro.errors.NetworkError` on every outstanding and
subsequent call.  So does being *shed*: a client that stops consuming
its push stream until the daemon holds more than its per-connection
backlog bound for it (``repro.server.daemon.MAX_WRITE_BACKLOG_BYTES``)
has its connection reset; reconnect and re-subscribe to recover.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.api.client import PassClient
from repro.api.dsl import as_query, coerce_pname
from repro.api.registry import register_scheme
from repro.api.results import Result
from repro.core.provenance import ProvenanceRecord
from repro.errors import (
    NetworkError,
    ProtocolError,
    error_from_code,
)
from repro.obs import MetricsRegistry, trace
from repro.query.explain import Explain
from repro.server import protocol
from repro.server.ops import OPS
from repro.stream.subscription import Subscription
from repro.stream.windows import WindowSpec

__all__ = ["RemoteClient"]


class _Pending:
    """One in-flight request: the event its caller blocks on."""

    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[dict] = None


class RemoteClient(PassClient):
    """A :class:`PassClient` talking to a :class:`~repro.server.daemon.PassDaemon`."""

    #: ``rpc.<op>`` already spans every call at this same boundary; a
    #: second ``client.<op>`` wrapper span would only restate it (op
    #: metrics still record under the ``client.<op>`` names)
    _client_op_spans = False

    def __init__(
        self,
        host: str,
        port: int,
        token: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.metrics = MetricsRegistry()
        self._closed = False
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._subs: Dict[str, Subscription] = {}
        self._dead: Optional[NetworkError] = None
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise NetworkError(f"cannot reach daemon at {host}:{port}: {error}") from None
        self._sock.settimeout(None)
        self._reader_file = self._sock.makefile("rb")
        self._reader = threading.Thread(
            target=self._read_loop, name="pass-client-reader", daemon=True
        )
        self._reader.start()
        try:
            hello = self._invoke("hello", token=token, tenant=tenant)
            if hello.get("wire_version") != protocol.WIRE_VERSION:
                raise ProtocolError(
                    f"daemon speaks wire version {hello.get('wire_version')}, "
                    f"this client speaks {protocol.WIRE_VERSION}"
                )
        except BaseException:
            # A refused hello leaves no client to close: release the socket
            # and the reader thread here.
            self.close()
            raise
        self.target = hello["target"]
        self.tenant = hello["tenant"]
        self._supports_lineage: Optional[bool] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _call(self, op: str, **args):
        """Send one request and block for its (typed) answer.

        An ``rpc.<op>`` span covers send-to-response; when a trace is
        active its context rides the request envelope (a top-level
        ``trace`` key next to ``id``/``op``/``args``), so the daemon's
        handler span -- and everything beneath it -- stitches onto this
        caller's trace tree.
        """
        if self._closed:
            raise NetworkError("client is closed")
        if self._dead is not None:
            raise self._dead
        with trace.span(f"rpc.{op}", attrs={"host": self.host, "port": self.port}):
            request_id = next(self._ids)
            pending = _Pending()
            envelope = {"id": request_id, "op": op, "args": args}
            context = trace.current_wire()
            if context is not None:
                envelope["trace"] = context
            frame = protocol.encode_frame(envelope)
            with self._state_lock:
                self._pending[request_id] = pending
            try:
                with self._send_lock:
                    self._sock.sendall(frame)
            except OSError as error:
                with self._state_lock:
                    self._pending.pop(request_id, None)
                raise NetworkError(f"daemon connection lost: {error}") from None
            if not pending.event.wait(self.timeout):
                with self._state_lock:
                    self._pending.pop(request_id, None)
                raise NetworkError(f"daemon did not answer {op!r} within {self.timeout}s")
            payload = pending.payload
            if isinstance(payload, NetworkError):
                raise payload
            if not payload.get("ok"):
                envelope = payload.get("error") or {}
                raise error_from_code(
                    envelope.get("code", "error"), envelope.get("message", "remote error")
                )
            return payload.get("result")

    def _invoke(self, op: str, **values):
        """One op through the table: encode the arguments, call, decode the answer."""
        row = OPS[op]
        return row.result.from_wire(self._call(op, **row.encode_args(values)))

    def _read_loop(self) -> None:
        reason = "daemon closed the connection"
        try:
            while True:
                frame = protocol.read_frame(self._reader_file)
                if frame is None:
                    break
                if "push" in frame:
                    self._handle_push(frame)
                else:
                    self._handle_response(frame)
        except (OSError, ValueError, ProtocolError) as error:
            if not self._closed:
                reason = f"daemon connection failed: {error}"
        finally:
            failure = NetworkError(reason)
            with self._state_lock:
                self._dead = failure
                pending, self._pending = self._pending, {}
            for waiter in pending.values():
                waiter.payload = failure
                waiter.event.set()

    def _handle_response(self, frame: dict) -> None:
        with self._state_lock:
            pending = self._pending.pop(frame.get("id"), None)
        if pending is not None:
            pending.payload = frame
            pending.event.set()

    def _handle_push(self, frame: dict) -> None:
        if frame.get("push") != "event":
            return  # "goodbye": the following EOF fails the pending calls
        event = protocol.event_from_wire(frame.get("event"))
        with self._state_lock:
            subscription = self._subs.get(event.subscription_id)
        if subscription is not None and subscription.active:
            # Matching happened server-side; mirror the counter so local
            # sub.stats() reads like the in-process engine's.
            subscription.matched += 1
            subscription.deliver(event)

    # ------------------------------------------------------------------
    # The façade protocol
    # ------------------------------------------------------------------
    def publish(self, tuple_set, origin: Optional[str] = None) -> Result:
        return self._invoke("publish", tuple_set=tuple_set, origin=origin)

    def publish_many(self, tuple_sets, origin: Optional[str] = None) -> Result:
        return self._invoke("publish_many", tuple_sets=tuple_sets, origin=origin)

    def query(
        self,
        query=None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
        origin: Optional[str] = None,
    ) -> Result:
        return self._invoke("query", query=query, limit=limit, offset=offset or None, origin=origin)

    def explain(self, query=None, *, origin: Optional[str] = None) -> Explain:
        return self._invoke("explain", query=query, origin=origin)

    def ancestors(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        return self._invoke(
            "ancestors", pname=pname, origin=origin, limit=limit, offset=offset or None
        )

    def descendants(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        return self._invoke(
            "descendants", pname=pname, origin=origin, limit=limit, offset=offset or None
        )

    def locate(self, pname, origin: Optional[str] = None) -> Result:
        return self._invoke("locate", pname=pname, origin=origin)

    def stats(self) -> Dict[str, object]:
        served = dict(self._invoke("stats"))
        served["tenant"] = self.tenant
        # Socket-side view: op counters/latencies observed by *this*
        # client, distinct from the daemon-side numbers in the rest.
        served["client"] = self.metrics.collect()["obs"]
        return served

    def daemon_metrics(self) -> Dict[str, object]:
        """The daemon's live introspection snapshot (the ``metrics`` op).

        Per-tenant op rates, latency percentiles, and active
        subscription counts; tenant-scoped when the daemon requires
        tokens, whole-daemon when it is open.  ``repro top`` renders it.
        """
        return self._invoke("metrics")

    def metrics_export(self) -> Dict[str, object]:
        """The daemon's OpenMetrics text exposition (``metrics_export``).

        ``{"content_type": ..., "text": ...}`` -- the same document the
        daemon's ``--metrics-port`` HTTP endpoint serves, tenant-scoped
        on a token-authed daemon.
        """
        return self._invoke("metrics_export")

    def health(self) -> Dict[str, object]:
        """The daemon's health report (the ``health`` wire op)."""
        return self._invoke("health")

    def alerts(self) -> Dict[str, object]:
        """The daemon's alert state (rules, firing set, transitions)."""
        return self._invoke("alerts")

    def timeseries(self) -> Dict[str, object]:
        """The daemon's retained time-series history (``timeseries`` op)."""
        return self._invoke("timeseries")

    def describe_record(self, pname) -> Optional[ProvenanceRecord]:
        return self._invoke("describe_record", pname=pname)

    def refresh(self) -> None:
        self._invoke("refresh")

    @property
    def supports_lineage(self) -> bool:
        if self._supports_lineage is None:
            self._supports_lineage = self._invoke("supports_lineage")
        return self._supports_lineage

    # ------------------------------------------------------------------
    # Subscriptions (local mirrors fed by the push stream)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query=None,
        *,
        callback=None,
        window: Optional[WindowSpec] = None,
        origin: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
    ) -> Subscription:
        described = self._invoke("subscribe", query=query, window=window, origin=origin, name=name)
        return self._mirror_subscription(
            described,
            query=None if query is None else as_query(query),
            window=window,
            callback=callback,
            maxsize=maxsize,
            overflow=overflow,
            name=name,
        )

    def subscribe_descendants(
        self,
        pname,
        *,
        callback=None,
        origin: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
    ) -> Subscription:
        watched = coerce_pname(pname)
        described = self._invoke("subscribe_descendants", pname=watched, origin=origin, name=name)
        return self._mirror_subscription(
            described,
            watched=watched,
            callback=callback,
            maxsize=maxsize,
            overflow=overflow,
            name=name,
        )

    def _mirror_subscription(self, described: dict, **local) -> Subscription:
        """The local twin of a daemon-side subscription: the daemon chose
        id, kind and site; query/window/delivery options stay client-side."""
        subscription = Subscription(
            subscription_id=described["id"],
            kind=described["kind"],
            site=described.get("site"),
            **local,
        )
        with self._state_lock:
            self._subs[subscription.id] = subscription
        return subscription

    def unsubscribe(self, subscription) -> bool:
        subscription_id = (
            subscription.id if isinstance(subscription, Subscription) else subscription
        )
        existed = self._invoke("unsubscribe", sub=subscription_id)
        with self._state_lock:
            local = self._subs.pop(subscription_id, None)
        if local is not None:
            local.active = False
            if local.queue is not None:
                local.queue.close()
        return existed

    def subscriptions(self) -> List[Subscription]:
        with self._state_lock:
            return list(self._subs.values())

    def flush_windows(self) -> int:
        # The daemon writes the trailing window events to this
        # connection before the response frame, so they are already in
        # the local queues when this returns.
        return self._invoke("flush_windows")

    # ------------------------------------------------------------------
    # Async index build
    # ------------------------------------------------------------------
    def submit_rebuild(self, strategy: Optional[str] = None) -> str:
        """Kick off the daemon's closure-index rebuild; returns its task id.

        ``strategy`` asks the daemon to switch the tenant store's closure
        strategy before rebuilding (the adaptive engine's switch verb,
        available remotely through the same job plumbing).
        """
        return self._invoke("rebuild_index", strategy=strategy)["task_id"]

    def job_status(self, task_id: str) -> Dict[str, object]:
        """One poll of an async job: status plus stats/error when finished."""
        return self._invoke("task_status", task_id=task_id)

    def rebuild_lineage_index(
        self, strategy: Optional[str] = None, poll_interval: float = 0.02
    ) -> Dict[str, object]:
        task_id = self.submit_rebuild(strategy=strategy)
        deadline = time.monotonic() + self.timeout
        while True:
            job = self.job_status(task_id)
            if job["status"] == "completed":
                return job.get("stats", {})
            if job["status"] == "failed":
                envelope = job.get("error") or {}
                raise error_from_code(
                    envelope.get("code", "error"),
                    envelope.get("message", "rebuild failed"),
                )
            if time.monotonic() > deadline:
                raise NetworkError(f"rebuild task {task_id} did not finish in time")
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._state_lock:
            subs = list(self._subs.values())
            self._subs.clear()
        for subscription in subs:
            subscription.active = False
            if subscription.queue is not None:
                subscription.queue.close()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5)
        # makefile() holds the descriptor open until the file is closed too;
        # only now, because the reader thread was reading from it.
        self._reader_file.close()


@register_scheme("pass")
def _connect_remote(spec) -> RemoteClient:
    """``pass://host:port[?token=...&tenant=...&timeout=...]``"""
    host, port = spec.endpoint()
    return RemoteClient(
        host,
        port,
        token=spec.text("token"),
        tenant=spec.text("tenant"),
        timeout=spec.number("timeout", 30.0),
    )
