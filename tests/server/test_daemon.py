"""Daemon lifecycle, auth, tenancy, jobs and wire-level misbehaviour.

These tests drive :class:`~repro.server.daemon.PassDaemon` the way a
deployment would: embedded ``start()``/``stop()`` around real TCP
connections, plus raw-socket clients for the frames a well-behaved
:class:`RemoteClient` would never send (bad framing, missing hello,
unknown ops).
"""

from __future__ import annotations

import concurrent.futures
import logging
import socket
import threading
import time

import pytest

from repro.api import connect
from repro.api.dsl import Q
from repro.core import ProvenanceRecord, Timestamp, TupleSet
from repro.errors import (
    AuthError,
    NetworkError,
    PassError,
    ProtocolError,
    UnknownEntityError,
)
from repro.server import PassDaemon, ops, protocol
from repro.server import daemon as daemon_module


def _tuple_set(tag: str, sequence: int = 0, ancestors=()) -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "daemon-test",
            "tag": tag,
            "sequence": sequence,
            "window_start": Timestamp(60.0 * sequence),
            "window_end": Timestamp(60.0 * (sequence + 1)),
        },
        ancestors=list(ancestors),
    )
    return TupleSet([], record)


def _raw_request(sock: socket.socket, payload: dict) -> dict:
    """One frame out, one frame back, over a bare socket."""
    sock.sendall(protocol.encode_frame(payload))
    stream = sock.makefile("rb")
    frame = protocol.read_frame(stream)
    assert frame is not None, "daemon closed the connection without answering"
    return frame


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_start_reports_the_bound_address_and_stop_is_idempotent():
    daemon = PassDaemon()
    address = daemon.start()
    assert address.port != 0
    assert address.url == f"pass://{address.host}:{address.port}"
    with pytest.raises(PassError, match="already started"):
        daemon.start()
    daemon.stop()
    daemon.stop()  # second stop is a no-op, not an error


def test_context_manager_serves_and_shuts_down():
    with PassDaemon() as daemon:
        with connect(daemon.address.url) as client:
            assert client.publish(_tuple_set("cm")).total == 1
    # After __exit__ the port no longer accepts connections.
    with pytest.raises(NetworkError):
        connect(daemon.address.url)


def test_startup_failure_surfaces_as_a_typed_error():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        daemon = PassDaemon(port=blocker.getsockname()[1])
        with pytest.raises(PassError, match="failed to start"):
            daemon.start()
        # The failed daemon must be restartable-clean: stop() is safe.
        daemon.stop()
    finally:
        blocker.close()


def test_graceful_shutdown_says_goodbye_to_live_subscribers():
    daemon = PassDaemon()
    address = daemon.start()
    client = connect(address.url)
    received = []
    subscription = client.subscribe(Q.attr("tag") == "live", callback=received.append)
    client.publish(_tuple_set("live"))
    deadline = time.time() + 5
    while not received and time.time() < deadline:
        time.sleep(0.01)
    assert len(received) == 1, "subscription must be live before the shutdown"

    daemon.stop()  # goodbye push, then EOF

    # The local mirror survives (no use-after-free), but the transport is
    # dead: the next call fails typed, not with a hang or a traceback.
    assert subscription.id in {sub.id for sub in client.subscriptions()}
    with pytest.raises(NetworkError):
        client.stats()
    client.close()


def test_stop_with_live_connections_lets_their_handlers_finish(caplog):
    daemon = PassDaemon()
    address = daemon.start()
    idle = connect(address.url)  # connected, nothing in flight
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        daemon.stop()
    # A handler cancelled mid-read is reported by the loop as
    # "Exception in callback ... CancelledError".
    assert [record.getMessage() for record in caplog.records] == []
    assert daemon._connections == set()
    idle.close()


def test_client_disconnect_mid_stream_reclaims_server_subscriptions():
    daemon = PassDaemon()
    address = daemon.start()
    holder = connect(address.url)  # keeps the tenant observable after the drop

    dropper = connect(address.url)
    dropper.subscribe(Q.attr("tag") == "gone")
    dropper.subscribe_descendants(_tuple_set("root").pname)
    tenant_client = daemon._tenants["default"].client
    assert len(tenant_client.subscriptions()) == 2
    dropper.close()  # vanish with both subscriptions still standing

    deadline = time.time() + 5
    while tenant_client.subscriptions() and time.time() < deadline:
        time.sleep(0.01)
    assert tenant_client.subscriptions() == [], "daemon must unsubscribe the dead peer"

    # The surviving connection is unaffected by its neighbour's death.
    assert holder.publish(_tuple_set("still-here")).total == 1
    holder.close()
    daemon.stop()


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------
def test_token_auth_rejects_missing_and_unknown_tokens():
    daemon = PassDaemon(tokens={"s3cret": "acme"})
    address = daemon.start()
    try:
        with pytest.raises(AuthError, match="requires a token"):
            connect(address.url)
        with pytest.raises(AuthError, match="unknown token"):
            connect(f"{address.url}?token=wrong")
        with pytest.raises(AuthError, match="not valid for tenant"):
            connect(f"{address.url}?token=s3cret&tenant=other")
        with connect(f"{address.url}?token=s3cret") as client:
            assert client.tenant == "acme"
            assert client.stats()["tenant"] == "acme"
    finally:
        daemon.stop()


def test_auth_failure_closes_the_connection():
    daemon = PassDaemon(tokens={"s3cret": "acme"})
    address = daemon.start()
    try:
        sock = socket.create_connection((address.host, address.port), timeout=5)
        answer = _raw_request(sock, {"id": 1, "op": "hello", "args": {"token": "bad"}})
        assert answer["ok"] is False
        assert answer["error"]["code"] == "auth"
        assert protocol.read_frame(sock.makefile("rb")) is None  # EOF follows
        sock.close()
    finally:
        daemon.stop()


def test_ops_before_hello_are_refused():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        sock = socket.create_connection((address.host, address.port), timeout=5)
        answer = _raw_request(sock, {"id": 1, "op": "stats", "args": {}})
        assert answer["ok"] is False
        assert answer["error"]["code"] == "auth"
        sock.close()
    finally:
        daemon.stop()


def test_two_hundred_connections_held_open_at_once_all_complete_their_ops():
    """Real sockets, real threads: every client is connected before any
    starts, the daemon counts them all live, and no op of any client fails."""
    clients, publishes = 200, 6
    with PassDaemon() as daemon:
        url = f"{daemon.address.url}?tenant=crowd"
        barrier = threading.Barrier(clients + 1, timeout=30)

        def work(index: int) -> int:
            with connect(url) as client:
                barrier.wait()  # everyone holds a connection ...
                barrier.wait()  # ... and the gauge below has been read
                for sequence in range(publishes):
                    client.publish(_tuple_set(f"client-{index}", sequence))
                return client.query(Q.attr("tag") == f"client-{index}").total

        with concurrent.futures.ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [pool.submit(work, index) for index in range(clients)]
            barrier.wait()
            with connect(daemon.address.url) as observer:
                exposition = observer.metrics_export()["text"]
            barrier.wait()
            totals = [future.result(timeout=30) for future in futures]
    live = [line for line in exposition.splitlines() if line.startswith("daemon_connections ")]
    assert live and float(live[0].split()[1]) >= clients + 1
    assert totals == [publishes] * clients


# ----------------------------------------------------------------------
# Tenancy
# ----------------------------------------------------------------------
def test_tenants_are_fully_isolated_namespaces():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        with connect(f"{address.url}?tenant=alpha") as alpha, connect(
            f"{address.url}?tenant=beta"
        ) as beta:
            published = alpha.publish(_tuple_set("secret"))
            # beta sees neither the record, the count, nor the lineage.
            assert beta.query(Q.attr("tag") == "secret").total == 0
            assert beta.describe_record(published.first()) is None
            assert beta.stats()["tenant"] == "beta"
            assert alpha.query(Q.attr("tag") == "secret").total == 1
    finally:
        daemon.stop()


def test_malformed_tenant_names_are_rejected():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        with pytest.raises(AuthError, match="malformed tenant"):
            connect(f"{address.url}?tenant=../etc")
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Async rebuild jobs
# ----------------------------------------------------------------------
def test_rebuild_job_runs_through_the_status_machine():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        with connect(address.url) as client:
            root = _tuple_set("root")
            client.publish(root)
            client.publish(_tuple_set("child", 1, ancestors=[root.pname]))
            task_id = client.submit_rebuild()
            assert task_id.startswith("task-")
            deadline = time.time() + 5
            while True:
                job = client.job_status(task_id)
                assert job["status"] in {"pending", "running", "completed"}
                if job["status"] == "completed":
                    break
                assert time.time() < deadline, f"job stuck in {job['status']}"
                time.sleep(0.005)
            assert job["stats"]["strategy"]
            # The blocking wrapper reaches the same completed stats.
            assert client.rebuild_lineage_index()["strategy"] == job["stats"]["strategy"]
    finally:
        daemon.stop()


def test_unknown_task_ids_and_cross_tenant_polls_fail_typed():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        with connect(f"{address.url}?tenant=alpha") as alpha, connect(
            f"{address.url}?tenant=beta"
        ) as beta:
            task_id = alpha.submit_rebuild()
            with pytest.raises(UnknownEntityError):
                beta.job_status(task_id)  # jobs are tenant-scoped
            with pytest.raises(UnknownEntityError):
                alpha.job_status("task-999999")
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Wire-level misbehaviour
# ----------------------------------------------------------------------
def test_unknown_ops_answer_with_a_protocol_error_and_close():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        sock = socket.create_connection((address.host, address.port), timeout=5)
        _raw_request(sock, {"id": 1, "op": "hello", "args": {}})
        answer = _raw_request(sock, {"id": 2, "op": "frobnicate", "args": {}})
        assert answer["ok"] is False
        assert answer["error"]["code"] == "protocol"
        assert protocol.read_frame(sock.makefile("rb")) is None
        sock.close()
    finally:
        daemon.stop()


def test_undecodable_frames_get_an_error_envelope_then_eof():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        sock = socket.create_connection((address.host, address.port), timeout=5)
        body = b"\xff\xfe not json"
        sock.sendall(len(body).to_bytes(4, "big") + body)
        stream = sock.makefile("rb")
        answer = protocol.read_frame(stream)
        assert answer["ok"] is False
        assert answer["error"]["code"] == "protocol"
        assert protocol.read_frame(stream) is None
        sock.close()
    finally:
        daemon.stop()


def test_typed_store_errors_keep_the_connection_open():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        with connect(address.url) as client:
            from repro.core import SensorReading

            record = _tuple_set("dup").provenance
            client.publish(TupleSet([], record))
            impostor = TupleSet(
                [SensorReading("cam-1", Timestamp(1.0), {"v": 1})], record
            )
            with pytest.raises(PassError):
                client.publish(impostor)  # non-identical data, same provenance
            # Same connection still serves requests afterwards.
            assert client.query(Q.attr("tag") == "dup").total == 1
    finally:
        daemon.stop()


def test_an_answer_too_large_for_a_frame_fails_typed_and_keeps_the_connection(monkeypatch):
    daemon = PassDaemon()
    address = daemon.start()
    try:
        # A short client timeout: an unanswered request fails here in
        # seconds, not at the 30 s default.
        with connect(f"{address.url}?timeout=3") as client:
            client.publish_many([_tuple_set("bulky", sequence) for sequence in range(40)])
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1500)
            with pytest.raises(ProtocolError, match="exceeds"):
                client.query(Q.attr("tag") == "bulky")
            monkeypatch.undo()
            # The request that could not be answered was answered -- typed --
            # and so is everything after it on the same connection.
            assert client.query(Q.attr("tag") == "bulky").total == 40
            served = client.daemon_metrics()["tenants"]["default"]["ops"]["query"]
            assert (served["count"], served["errors"]) == (2, 1)
    finally:
        daemon.stop()


def _on_loop(daemon: PassDaemon, read):
    """Evaluate ``read()`` on the daemon's loop thread (its state is single-threaded)."""
    future = concurrent.futures.Future()
    daemon._loop.call_soon_threadsafe(lambda: future.set_result(read()))
    return future.result(timeout=5)


def _stalled_subscriber(address) -> socket.socket:
    """A raw peer subscribed to every ``_tuple_set`` that then never reads again."""
    stalled = socket.socket()
    # Keep the kernel from absorbing the backlog the daemon should be counting.
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.settimeout(5)
    stalled.connect((address.host, address.port))
    assert _raw_request(stalled, {"id": 1, "op": "hello", "args": {}})["ok"]
    matching = ops.OPS["subscribe"].encode_args({"query": Q.attr("domain") == "daemon-test"})
    assert _raw_request(stalled, {"id": 2, "op": "subscribe", "args": matching})["ok"]
    return stalled


def _largest_backlog(daemon: PassDaemon) -> int:
    return _on_loop(
        daemon,
        lambda: max(c.transport.get_write_buffer_size() for c in daemon._connections),
    )


def test_a_subscriber_that_never_reads_is_shed_and_nobody_else_notices(monkeypatch, caplog):
    limit = 256 * 1024
    monkeypatch.setattr(daemon_module, "MAX_WRITE_BACKLOG_BYTES", limit)
    daemon = PassDaemon()
    address = daemon.start()
    stalled = _stalled_subscriber(address)
    try:
        heard = []
        with connect(f"{address.url}?timeout=5") as publisher, connect(address.url) as bystander:
            bystander.subscribe(Q.attr("tag") == "batch-0", callback=heard.append)
            peak = 0
            with caplog.at_level(logging.WARNING, logger="repro.server"):
                for batch in range(200):
                    sets = [_tuple_set(f"batch-{batch}", 50 * batch + n) for n in range(50)]
                    assert publisher.publish_many(sets).total == 50
                    peak = max(peak, _largest_backlog(daemon))
                    served = publisher.daemon_metrics()["tenants"]["default"]["ops"]
                    if "shed" in served:
                        break
            assert (served["shed"]["count"], served["shed"]["errors"]) == (1, 1)
            assert [r.getMessage() for r in caplog.records if "shed slow consumer" in r.getMessage()]
            # Between batches the daemon never held more than the bound
            # plus the frame that crossed it.
            assert 0 < peak < limit + 64 * 1024
            # The stalled peer's standing query went with it; the others
            # kept their connections, their pushes and their answers.
            deadline = time.time() + 5
            while len(daemon._connections) > 2 and time.time() < deadline:
                time.sleep(0.01)
            assert len(daemon._connections) == 2
            assert publisher.daemon_metrics()["tenants"]["default"]["active_subscriptions"] == 1
            assert len(heard) == 50
            assert bystander.query(Q.attr("tag") == "batch-0").total == 50
    finally:
        stalled.close()
        daemon.stop()


def test_stop_does_not_wait_for_a_peer_that_is_behind_on_its_reading():
    daemon = PassDaemon()
    address = daemon.start()
    stalled = _stalled_subscriber(address)
    try:
        with connect(f"{address.url}?timeout=5") as publisher:
            for batch in range(200):
                publisher.publish_many([_tuple_set("behind", 50 * batch + n) for n in range(50)])
                if _largest_backlog(daemon):
                    break
            assert _largest_backlog(daemon) > 0, "the peer's kernel buffers never filled"
        stopper = threading.Thread(target=daemon.stop)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive(), "stop() is waiting on the stalled peer"
    finally:
        stalled.close()
        daemon.stop()


def test_an_oversized_frame_before_hello_is_refused_unread():
    daemon = PassDaemon()
    address = daemon.start()
    try:
        sock = socket.create_connection((address.host, address.port), timeout=2)
        # Only the header: a daemon that waits for the announced megabyte
        # never answers, and the read below times out.
        sock.sendall((1024 * 1024).to_bytes(4, "big"))
        stream = sock.makefile("rb")
        answer = protocol.read_frame(stream)
        assert answer["ok"] is False
        assert answer["error"]["code"] == "protocol"
        assert "hello" in answer["error"]["message"]
        assert protocol.read_frame(stream) is None
        sock.close()
        # After the handshake the ordinary frame cap applies.
        with connect(address.url) as client:
            bulk = [_tuple_set("x" * 2000, sequence) for sequence in range(60)]
            assert client.publish_many(bulk).total == 60  # one frame > 64 KiB
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Framing in the read callback
# ----------------------------------------------------------------------
def _received_chunks(monkeypatch) -> list:
    """The size of every chunk the daemon's connections are handed, in order."""
    chunks = []
    received = daemon_module._Connection.data_received
    monkeypatch.setattr(
        daemon_module._Connection, "data_received", lambda self, data: (chunks.append(len(data)), received(self, data))[1]
    )
    return chunks


def _send_in_segments(sock: socket.socket, *pieces: bytes) -> None:
    """Each piece its own segment, given time to be read before the next."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for piece in pieces:
        sock.sendall(piece)
        time.sleep(0.005)


HELLO = protocol.encode_frame({"id": 1, "op": "hello", "args": {}})
PING = protocol.encode_frame({"id": 2, "op": "ping", "args": {}})


def test_a_frame_delivered_one_byte_at_a_time_is_answered(monkeypatch):
    chunks = _received_chunks(monkeypatch)
    with PassDaemon(sample_interval_s=None) as daemon:
        with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
            _send_in_segments(sock, *(HELLO[i : i + 1] for i in range(len(HELLO))))
            answer = protocol.read_frame(sock.makefile("rb"))
    assert answer["id"] == 1 and answer["ok"] is True
    assert sum(chunks) == len(HELLO) and len(chunks) >= 3, chunks


def test_two_frames_in_one_segment_are_both_answered_in_order(monkeypatch):
    chunks = _received_chunks(monkeypatch)
    with PassDaemon(sample_interval_s=None) as daemon:
        with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
            sock.sendall(HELLO + PING)
            stream = sock.makefile("rb")
            answers = [protocol.read_frame(stream), protocol.read_frame(stream)]
    assert [(answer["id"], answer["ok"]) for answer in answers] == [(1, True), (2, True)]
    assert chunks == [len(HELLO) + len(PING)]


def test_a_header_split_across_segments_is_joined(monkeypatch):
    chunks = _received_chunks(monkeypatch)
    with PassDaemon(sample_interval_s=None) as daemon:
        with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
            _send_in_segments(sock, HELLO[:1], HELLO[1:3], HELLO[3:6], HELLO[6:] + PING[:2], PING[2:])
            stream = sock.makefile("rb")
            answers = [protocol.read_frame(stream), protocol.read_frame(stream)]
    assert [(answer["id"], answer["ok"]) for answer in answers] == [(1, True), (2, True)]
    assert sum(chunks) == len(HELLO) + len(PING) and len(chunks) >= 3, chunks


def test_the_pre_hello_cap_admits_its_size_and_refuses_one_byte_more_from_a_split_header():
    cap = daemon_module.MAX_PREAUTH_FRAME_BYTES
    hello = b'{"id":1,"op":"hello","args":{},"pad":"'
    body = hello + b"x" * (cap - len(hello) - 2) + b'"}'
    assert len(body) == cap
    with PassDaemon(sample_interval_s=None) as daemon:
        with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
            sock.sendall(cap.to_bytes(4, "big") + body)
            assert protocol.read_frame(sock.makefile("rb"))["ok"] is True
        with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
            # Only the header, in two pieces: the refusal cannot wait for a body.
            _send_in_segments(sock, (cap + 1).to_bytes(4, "big")[:2], (cap + 1).to_bytes(4, "big")[2:])
            stream = sock.makefile("rb")
            answer = protocol.read_frame(stream)
            assert answer["ok"] is False and answer["error"]["code"] == "protocol"
            assert answer["error"]["message"] == f"frame of {cap + 1} bytes precedes the 'hello'"
            assert protocol.read_frame(stream) is None


def test_a_peer_that_stops_reading_its_replies_stops_being_read():
    requests = 200
    with PassDaemon(sample_interval_s=None) as daemon:
        with connect(daemon.address.url) as client:
            client.publish_many([_tuple_set("wide", sequence) for sequence in range(1000)])
        query = ops.OPS["query"].encode_args({"query": Q.attr("tag") == "wide", "limit": 1000})
        frames = [protocol.encode_frame({"id": n, "op": "query", "args": query}) for n in range(1, requests + 1)]

        def served() -> int:
            ops_served = _on_loop(daemon, lambda: daemon.monitor.metrics(None)["tenants"]["default"]["ops"])
            return ops_served.get("query", {}).get("count", 0)

        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect((daemon.address.host, daemon.address.port))
            sock.sendall(HELLO + b"".join(frames))  # ~70 KB of answer each, none read yet
            counts = [served()]
            deadline = time.time() + 10
            while time.time() < deadline:
                time.sleep(0.25)
                counts.append(served())
                if counts[-1] == counts[-2] > 0:
                    break
            stalled_at = counts[-1]
            assert 0 < stalled_at < requests, counts
            # What waits is the requests, not their answers: the daemon holds
            # about one answer past the transport's high-water mark.
            assert _largest_backlog(daemon) < 64 * 1024 + 80 * 1024
            stream = sock.makefile("rb")
            answers = [protocol.read_frame(stream) for _ in range(requests + 1)]
    assert [answer["id"] for answer in answers] == [1, *range(1, requests + 1)]
    assert all(answer["ok"] for answer in answers)
    assert answers[-1]["result"]["total"] == 1000
