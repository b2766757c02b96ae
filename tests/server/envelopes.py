"""Capture every wire op's request and response frame through a recording proxy.

``capture()`` drives one scripted :class:`RemoteClient` session (every
op in the table at least once, on a fixed input) through a TCP proxy
that records both directions, and returns the frames as text lines:
``> {...}`` for a request body, ``< {...}`` for a response or push body,
in the order each direction carried them.  ``fixtures/envelopes.txt`` is
this output at the commit *before* the op table existed; the golden test
in ``test_ops.py`` holds every later commit to it.

Run ``PYTHONPATH=src python tests/server/envelopes.py`` to print the
lines (the harness uses only public client calls, so it runs unchanged
on older checkouts).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import List

from repro.api import connect
from repro.api.dsl import Q
from repro.core import ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.obs import trace
from repro.server import PassDaemon, protocol
from repro.stream.windows import WindowSpec

#: ops whose answers carry wall-clock measurements: their floats are
#: zeroed before comparison (keys, order, strings and integers still count)
VOLATILE = {"explain", "stats", "metrics", "metrics_export", "health"}


class _Proxy:
    """Forward one TCP connection to the daemon, keeping both byte streams."""

    def __init__(self, upstream_host: str, upstream_port: int) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self.sent = bytearray()  # client -> daemon
        self.received = bytearray()  # daemon -> client
        self._upstream = (upstream_host, upstream_port)
        self._sockets: List[socket.socket] = [self._listener]
        self._threads: List[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept, daemon=True)
        self._acceptor.start()

    def _accept(self) -> None:
        downstream, _ = self._listener.accept()
        upstream = socket.create_connection(self._upstream)
        self._sockets += [downstream, upstream]
        for source, sink, log in (
            (downstream, upstream, self.sent),
            (upstream, downstream, self.received),
        ):
            thread = threading.Thread(
                target=self._pump, args=(source, sink, log), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket, log: bytearray) -> None:
        try:
            while True:
                chunk = source.recv(65536)
                if not chunk:
                    break
                log.extend(chunk)
                sink.sendall(chunk)
        except OSError:
            pass
        finally:
            try:
                sink.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def join(self) -> None:
        self._acceptor.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
        for sock in self._sockets:
            sock.close()


def _bodies(stream: bytes) -> List[bytes]:
    frames = []
    position = 0
    while position < len(stream):
        length = protocol.frame_length(stream[position : position + 4])
        frames.append(stream[position + 4 : position + 4 + length])
        position += 4 + length
    return frames


def _tuple_set(sequence: int, ancestors=()) -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "golden",
            "city": "london" if sequence % 2 == 0 else "boston",
            "sequence": sequence,
            "window_start": Timestamp(300.0 * sequence),
            "window_end": Timestamp(300.0 * (sequence + 1)),
        },
        ancestors=list(ancestors),
    )
    readings = [SensorReading(f"cam-{sequence}", Timestamp(300.0 * sequence), {"v": sequence})]
    return TupleSet(readings, record)


def _session(client) -> None:
    """Every op, fixed inputs; optional arguments both given and omitted."""
    root = _tuple_set(0)
    child = _tuple_set(1, ancestors=[root.pname])
    third = _tuple_set(2, ancestors=[child.pname])
    fourth = _tuple_set(3)
    watch = client.subscribe(Q.attr("city") == "london", name="londoners")
    client.subscribe(
        Q.attr("domain") == "golden",
        window=WindowSpec(size_seconds=600.0, aggregate="count"),
        origin="console",
    )
    client.subscribe_descendants(root.pname, name="taint")
    client.publish(root)
    client.publish(child, origin="proxy-1")
    client.publish_many([third, fourth])
    client.query(Q.attr("city") == "london")
    client.query(Q.attr("sequence").between(1, 3), limit=2, offset=1, origin="console")
    client.query()
    client.explain(Q.attr("city") == "boston")
    client.ancestors(third)
    client.ancestors(third, origin="console", limit=1, offset=1)
    client.descendants(root.pname, limit=5)
    client.locate(child.pname)
    client.locate(child.pname, origin="console")
    client.describe_record(fourth.pname)
    client.describe_record(_tuple_set(99).pname)
    client.refresh()
    assert client.supports_lineage is True
    client.flush_windows()
    client.unsubscribe(watch)
    client.unsubscribe("sub-404")
    tasks = [client.submit_rebuild(), client.submit_rebuild(strategy="interval")]
    time.sleep(0.2)  # one poll each, after the jobs have certainly finished
    for task in tasks:
        assert client.job_status(task)["status"] == "completed"
    client.stats()
    client.daemon_metrics()
    client.metrics_export()
    client.health()
    client.alerts()
    client.timeseries()


def _zero_floats(body: bytes) -> str:
    masked = json.loads(body.decode("utf-8"), parse_float=lambda text: 0.0)
    result = masked.get("result")
    if isinstance(result, dict) and isinstance(result.get("text"), str):
        # metrics_export: the only wall-clock sample in the exposition
        result["text"] = re.sub(r"(?m)^(daemon_uptime_s) \S+$", r"\1 0", result["text"])
    return json.dumps(masked, separators=(",", ":"))


def capture() -> List[str]:
    """The scripted session's frames as ``> request`` / ``< response`` lines."""
    # No sampler: `timeseries` and the exposition then answer from fixed
    # state instead of whatever the last tick happened to scrape; the
    # trace ring's drop totals (quoted by `health` and `stats`) start at 0.
    trace.clear()
    with PassDaemon(sample_interval_s=None) as daemon:
        proxy = _Proxy(daemon.address.host, daemon.address.port)
        with connect(f"pass://127.0.0.1:{proxy.port}?tenant=golden") as client:
            _session(client)
            # Raw frames for the two ops the client never sends.
            for op in ("ping", "subscriptions"):
                client._call(op)
        proxy.join()
    requests = _bodies(bytes(proxy.sent))
    volatile_ids = {
        json.loads(body)["id"] for body in requests if json.loads(body)["op"] in VOLATILE
    }
    lines = ["> " + body.decode("utf-8") for body in requests]
    for body in _bodies(bytes(proxy.received)):
        if json.loads(body).get("id") in volatile_ids:
            lines.append("< " + _zero_floats(body))
        else:
            lines.append("< " + body.decode("utf-8"))
    return lines


if __name__ == "__main__":
    print("\n".join(capture()))
