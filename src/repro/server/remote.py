"""The ``pass://`` client: the façade protocol over a live daemon.

:class:`RemoteClient` speaks :mod:`repro.server.protocol` over a blocking
TCP socket, each request frame written in one walk
(:meth:`repro.server.ops.Op.encode_request`).  The thread that sends a
request reads the socket until its own reply arrives; one thread reads at
a time, and a reply it reads for another caller is handed over by ``id``.
While a subscription is live a listener thread (``pass-client-reader``)
does all the reading, so that pushes reach their callbacks with no call in
flight.  Whoever reads routes each frame alike (:meth:`RemoteClient._read_one`):
a push to its local :class:`~repro.stream.subscription.Subscription` mirror
(callback or pull queue, as in-process), a response to its caller.  The
daemon writes a connection's frames in order, on one thread, so a window
event is routed *before* the ``flush_windows`` response that caused it:
``flush`` then ``drain`` works unchanged across the socket.

Wire errors come back as stable codes and are re-raised as the same
:mod:`repro.errors` type the server caught.  EOF, a reset, or a reply not
read within ``timeout`` seconds fails the connection (a read cut off
mid-frame cannot resume): that call and every outstanding and later one
raise :class:`~repro.errors.NetworkError`.  So does being *shed*: a client
that stops consuming its push stream until the daemon holds more than its
per-connection backlog bound for it (``repro.server.daemon.MAX_WRITE_BACKLOG_BYTES``)
has its connection reset; reconnect and re-subscribe to recover.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from contextlib import suppress
from typing import Dict, List, Optional

from repro.api.client import PassClient
from repro.api.dsl import as_query, coerce_pname
from repro.api.registry import register_scheme
from repro.api.results import Result
from repro.core.provenance import ProvenanceRecord
from repro.errors import NetworkError, ProtocolError, error_from_code
from repro.obs import MetricsRegistry, trace
from repro.query.explain import Explain
from repro.server import protocol
from repro.server.ops import OPS
from repro.stream.subscription import Subscription
from repro.stream.windows import WindowSpec

__all__ = ["RemoteClient"]


class RemoteClient(PassClient):
    """A :class:`PassClient` talking to a :class:`~repro.server.daemon.PassDaemon`."""

    #: ``rpc.<op>`` already spans every call at this same boundary; a
    #: second ``client.<op>`` wrapper span would only restate it (op
    #: metrics still record under the ``client.<op>`` names)
    _client_op_spans = False

    def __init__(
        self, host: str, port: int, token: Optional[str] = None, tenant: Optional[str] = None, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.metrics = MetricsRegistry()
        self._closed = False
        self._send_lock = threading.Lock()
        #: held by the one thread that reads the socket (``_reader``): a caller, or the listener
        self._read_lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        #: guards the subscriptions and the listener, and wakes the callers that
        #: wait for another thread to hand over their reply or let go of the socket
        self._handoff = threading.Condition()
        self._waiting = 0
        #: replies read by another thread than their caller, by request id
        self._replies: Dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._subs: Dict[str, Subscription] = {}
        self._listener: Optional[threading.Thread] = None
        self._dead: Optional[NetworkError] = None
        try:
            # The timeout stays on the socket, where it bounds each caller's read.
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise NetworkError(f"cannot reach daemon at {host}:{port}: {error}") from None
        self._reader_file = self._sock.makefile("rb")
        try:
            hello = self._invoke("hello", token=token, tenant=tenant)
            if (version := hello.get("wire_version")) != protocol.WIRE_VERSION:
                raise ProtocolError(f"daemon speaks wire version {version}, this client speaks {protocol.WIRE_VERSION}")
        except BaseException:
            # A refused hello leaves no client to close: release the socket here.
            self.close()
            raise
        self.target = hello["target"]
        self.tenant = hello["tenant"]
        self._supports_lineage: Optional[bool] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _call(self, op: str, **values):
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
            frame = OPS[op].encode_request(request_id, values, trace.current_wire())
            try:
                with self._send_lock:
                    self._sock.sendall(frame)
            except OSError as error:
                raise self._fail(f"daemon connection lost: {error}") from None
            reply = self._reply(request_id)
            if not reply.get("ok"):
                _raise_remote(reply.get("error"), "remote error")
            return reply.get("result")

    def _invoke(self, op: str, **values):
        """One op through the table: write the request, call, decode the answer."""
        return OPS[op].result.from_wire(self._call(op, **values))

    def _reply(self, request_id: int) -> dict:
        """The reply to ``request_id``: read by this thread while no other reads,
        else handed over by the thread that does (see :meth:`_read_one`)."""
        deadline = time.monotonic() + self.timeout
        me = threading.current_thread()
        # A call from a callback, on the thread that reads: it reads its reply in line.
        nested = self._reader is me
        while True:
            if nested or self._read_lock.acquire(blocking=False):
                self._reader = me
                try:
                    reply = self._replies.pop(request_id, None)
                    while reply is None:
                        reply = self._read_one(request_id)
                    return reply
                finally:
                    if not nested:
                        self._release_reads()
            with self._handoff:
                self._waiting += 1
                try:
                    while request_id not in self._replies and self._read_lock.locked():
                        if not self._handoff.wait(max(deadline - time.monotonic(), 0)):
                            raise self._fail(f"daemon did not answer within {self.timeout}s")
                finally:
                    self._waiting -= 1
            if request_id in self._replies:
                return self._replies.pop(request_id)

    def _read_one(self, own: Optional[int]) -> Optional[dict]:
        """Read one frame and route it: the one read path, for callers and listener alike.

        A push goes to its subscription mirror and another caller's reply to
        :attr:`_replies`; the reply to request ``own`` is returned.  A read
        that fails, times out or meets EOF fails the connection.
        """
        try:
            frame = protocol.read_frame(self._reader_file)
            if frame is not None and "push" in frame:
                self._handle_push(frame)
                return None
        except TimeoutError:
            raise self._fail(f"daemon did not answer within {self.timeout}s") from None
        except (OSError, ValueError, ProtocolError) as error:
            raise self._fail(f"daemon connection failed: {error}") from None
        if frame is None:
            raise self._fail("daemon closed the connection")
        if frame.get("id") == own:
            return frame
        self._replies[frame.get("id")] = frame
        if self._waiting:
            with self._handoff:
                self._handoff.notify_all()
        return None

    def _release_reads(self) -> None:
        """Let go of the socket, waking the callers that wait to read it."""
        self._reader = None
        self._read_lock.release()
        if self._waiting:
            with self._handoff:
                self._handoff.notify_all()

    def _fail(self, reason: str) -> NetworkError:
        """Fail the connection: every waiting and later call raises the returned error."""
        with self._handoff:
            if self._dead is None:
                self._dead = NetworkError("client is closed" if self._closed else reason)
        with suppress(OSError):
            # The reading thread wakes to an EOF; each waiting caller then reads it in turn.
            self._sock.shutdown(socket.SHUT_RDWR)
        return self._dead

    def _listen(self) -> None:
        """The listener: reads and routes every frame while a subscription is live.

        It starts holding the socket, which its subscriber took for it, and
        retires after the first frame it reads with no subscription left: at
        the latest, the reply to the unsubscribe that removed the last one.
        """
        try:
            with suppress(OSError):
                self._sock.settimeout(None)  # pushes may be far apart
            while True:
                with self._handoff:
                    if not self._subs or self._closed:
                        self._listener = None
                        break
                self._read_one(None)
        except NetworkError:
            pass  # the connection is failed, and every caller told so
        finally:
            if self._listener is threading.current_thread():
                self._fail("the subscription listener stopped")  # a callback raised
            with suppress(OSError):
                self._sock.settimeout(self.timeout)
            self._release_reads()

    def _handle_push(self, frame: dict) -> None:
        if frame.get("push") != "event":
            return  # "goodbye": the following EOF fails the pending calls
        event = protocol.event_from_wire(frame.get("event"))
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
        self, query=None, *, limit: Optional[int] = None, offset: int = 0, origin: Optional[str] = None
    ) -> Result:
        return self._invoke("query", query=query, limit=limit, offset=offset or None, origin=origin)

    def explain(self, query=None, *, origin: Optional[str] = None) -> Explain:
        return self._invoke("explain", query=query, origin=origin)

    def ancestors(
        self, pname, origin: Optional[str] = None, *, limit: Optional[int] = None, offset: int = 0
    ) -> Result:
        return self._invoke("ancestors", pname=pname, origin=origin, limit=limit, offset=offset or None)

    def descendants(
        self, pname, origin: Optional[str] = None, *, limit: Optional[int] = None, offset: int = 0
    ) -> Result:
        return self._invoke("descendants", pname=pname, origin=origin, limit=limit, offset=offset or None)

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
        """The daemon's live snapshot (the ``metrics`` op): per-tenant op rates, latency percentiles
        and subscription counts, tenant-scoped on a token-authed daemon.  ``repro top`` renders it."""
        return self._invoke("metrics")

    def metrics_export(self) -> Dict[str, object]:
        """The daemon's OpenMetrics text (``metrics_export``): the document its ``--metrics-port``
        HTTP endpoint serves, tenant-scoped on a token-authed daemon."""
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
        query = None if query is None else as_query(query)
        return self._mirror(
            described, query=query, window=window, callback=callback, maxsize=maxsize, overflow=overflow, name=name
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
        return self._mirror(
            described, watched=watched, callback=callback, maxsize=maxsize, overflow=overflow, name=name
        )

    def _mirror(self, described: dict, **local) -> Subscription:
        """The local twin of a daemon-side subscription (the daemon chose id, kind and site;
        query, window and delivery stay client-side).  The first live one starts the listener."""
        subscription = Subscription(described["id"], described["kind"], site=described.get("site"), **local)
        with self._handoff:
            self._subs[subscription.id] = subscription
            listener = None
            if self._listener is None and self._dead is None:
                listener = self._listener = threading.Thread(target=self._listen, name="pass-client-reader")
                listener.daemon = True
        if listener is not None:
            self._read_lock.acquire()  # once the thread reading now, if any, lets go
            self._reader = listener
            listener.start()
        return subscription

    def unsubscribe(self, subscription) -> bool:
        subscription_id = subscription.id if isinstance(subscription, Subscription) else subscription
        # The mirror goes first, as in-process, so that the listener retires
        # on the reply to the unsubscribe that leaves no subscription.
        with self._handoff:
            local = self._subs.pop(subscription_id, None)
            listener = self._listener
        _retire([] if local is None else [local])
        existed = self._invoke("unsubscribe", sub=subscription_id)
        if listener not in (None, threading.current_thread()) and not self._subs:
            listener.join(self.timeout)
        return existed

    def subscriptions(self) -> List[Subscription]:
        with self._handoff:
            return list(self._subs.values())

    def flush_windows(self) -> int:
        # The daemon writes the trailing window events to this
        # connection before the response frame, so they are already in
        # the local queues when this returns.
        return self._invoke("flush_windows")

    # ------------------------------------------------------------------
    # Async index build
    # ------------------------------------------------------------------
    def submit_rebuild(self) -> str:
        """Kick off the daemon's closure-index rebuild; returns its task id."""
        return self._invoke("rebuild_index")["task_id"]

    def job_status(self, task_id: str) -> Dict[str, object]:
        """One poll of an async job: status plus stats/error when finished."""
        return self._invoke("task_status", task_id=task_id)

    def rebuild_lineage_index(self, poll_interval: float = 0.02) -> Dict[str, object]:
        task_id = self.submit_rebuild()
        deadline = time.monotonic() + self.timeout
        while True:
            job = self.job_status(task_id)
            if job["status"] == "completed":
                return job.get("stats", {})
            if job["status"] == "failed":
                _raise_remote(job.get("error"), "rebuild failed")
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
        with self._handoff:
            _retire(self._subs.values())
            self._subs.clear()
            listener = self._listener
        self._fail("client is closed")  # whichever thread reads, caller or listener, wakes to an EOF
        self._sock.close()
        if listener not in (None, threading.current_thread()):
            listener.join(timeout=5)
        # makefile() holds the descriptor open until the file is closed too;
        # closing it waits for a read still under way on it.
        self._reader_file.close()


def _raise_remote(envelope: Optional[dict], default: str):
    """Re-raise a wire error envelope as the :mod:`repro.errors` type it names."""
    envelope = envelope or {}
    raise error_from_code(envelope.get("code", "error"), envelope.get("message", default))


def _retire(subscriptions) -> None:
    """Stop local mirrors delivering, their queues closed."""
    for subscription in subscriptions:
        subscription.active = False
        if subscription.queue is not None:
            subscription.queue.close()


@register_scheme("pass")
def _connect_remote(spec) -> RemoteClient:
    """``pass://host:port[?token=...&tenant=...&timeout=...]``"""
    host, port = spec.endpoint()
    timeout = spec.number("timeout", 30.0)
    return RemoteClient(host, port, token=spec.text("token"), tenant=spec.text("tenant"), timeout=timeout)
