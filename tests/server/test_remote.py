"""The ``pass://`` client: façade parity with ``memory://`` over a socket.

The contract of :class:`~repro.server.remote.RemoteClient` is that code
written against the in-process façade runs unchanged against a daemon:
same answers, same typed errors, same subscription idioms (callback and
pull-queue), same happens-before ordering between window flushes and
their events.  These tests run each idiom against both targets and
compare.
"""

from __future__ import annotations

import contextlib
import gc
import json
import socket
import sys
import threading
import time

import pytest

from repro.api import connect
from repro.api.client import LocalClient, ModelClient
from repro.api.dsl import Q
from repro.core import ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.errors import (
    AuthError,
    ConfigurationError,
    NetworkError,
    QueryError,
    UnknownEntityError,
)
from repro.server import PassDaemon, protocol
from repro.stream.windows import WindowSpec


@pytest.fixture(scope="module")
def daemon():
    with PassDaemon() as running:
        yield running


@pytest.fixture
def remote(daemon, request):
    """A RemoteClient on a fresh tenant per test (no cross-test state)."""
    tenant = request.node.name.replace("[", "-").replace("]", "")
    client = connect(f"{daemon.address.url}?tenant={tenant}")
    yield client
    client.close()


def _sets(count: int, chain: bool = False):
    sets = []
    previous = None
    for index in range(count):
        record = ProvenanceRecord(
            {
                "domain": "remote-test",
                "city": "london" if index % 2 == 0 else "boston",
                "sequence": index,
                "window_start": Timestamp(300.0 * index),
                "window_end": Timestamp(300.0 * (index + 1)),
            },
            ancestors=[previous] if chain and previous is not None else [],
        )
        readings = [
            SensorReading(f"cam-{index}", Timestamp(300.0 * index), {"v": index})
        ]
        sets.append(TupleSet(readings, record))
        previous = record.pname()
    return sets


# ----------------------------------------------------------------------
# Parity with the in-process façade
# ----------------------------------------------------------------------
def test_full_facade_parity_with_memory(remote):
    sets = _sets(12, chain=True)

    def wire(result) -> str:
        """The whole Result -- records, total, offset, cost, notes -- as canonical JSON."""
        return json.dumps(protocol.result_to_wire(result), sort_keys=True)

    with connect("memory://") as local:
        assert wire(remote.publish_many(sets)) == wire(local.publish_many(sets))
        for query in (
            Q.attr("city") == "london",
            Q.attr("sequence").between(2, 8),
            Q.derived_from(sets[0].pname),
            Q.find(Q.attr("domain") == "remote-test").order_by("sequence"),
        ):
            assert wire(remote.query(query)) == wire(local.query(query))
            assert wire(remote.query(query, limit=3, offset=1)) == wire(local.query(query, limit=3, offset=1))
        assert wire(remote.ancestors(sets[-1], limit=5)) == wire(local.ancestors(sets[-1], limit=5))
        assert wire(remote.descendants(sets[0])) == wire(local.descendants(sets[0]))
        assert wire(remote.locate(sets[3].pname)) == wire(local.locate(sets[3].pname))
        assert remote.locate(sets[3].pname).cost.sites == ["local"]
        local_explain = local.explain(Q.attr("city") == "boston")
        remote_explain = remote.explain(Q.attr("city") == "boston")
        # duration_ms is wall time -- the only legitimately nondeterministic
        # Explain field; everything else must match byte for byte.
        assert remote_explain.duration_ms > 0
        local_dict, remote_dict = local_explain.to_dict(), remote_explain.to_dict()
        local_dict.pop("duration_ms"), remote_dict.pop("duration_ms")
        assert remote_dict == local_dict
        assert remote.describe_record(sets[5].pname).to_dict() == sets[
            5
        ].provenance.to_dict()
        assert remote.supports_lineage is local.supports_lineage


def test_stats_carry_the_remote_target_and_tenant(remote):
    stats = remote.stats()
    assert stats["target"] == "remote+local"
    assert stats["target"] == remote.target
    assert stats["tenant"] == remote.tenant
    assert remote.describe_record(_sets(1)[0].pname) is None


# ----------------------------------------------------------------------
# Typed errors across the wire
# ----------------------------------------------------------------------
def test_remote_errors_re_raise_the_in_process_types(remote):
    from repro.core.provenance import PName

    with pytest.raises(UnknownEntityError):
        remote.ancestors(PName("0" * 64))
    with pytest.raises(QueryError):
        remote.query(Q.attr("sequence").between(None, None))
    with pytest.raises(ConfigurationError):
        remote.subscribe(Q.attr("city") == "x", window=WindowSpec(size_seconds=60.0, aggregate="nope"))


def test_window_spec_validation_happens_before_the_wire(remote):
    # Construction already fails locally -- same type a local caller sees.
    with pytest.raises(ConfigurationError):
        WindowSpec(size_seconds=-1.0)


# ----------------------------------------------------------------------
# Subscriptions across the socket
# ----------------------------------------------------------------------
def test_callback_subscription_streams_matches(remote):
    received = []
    subscription = remote.subscribe(Q.attr("city") == "london", callback=received.append)
    sets = _sets(6)
    remote.publish_many(sets)
    deadline = time.time() + 5
    while len(received) < 3 and time.time() < deadline:
        time.sleep(0.01)
    assert sorted(event.pname.digest for event in received) == sorted(
        ts.pname.digest for ts in sets if ts.provenance.attributes["city"] == "london"
    )
    assert subscription.stats()["delivered"] == 3
    assert remote.unsubscribe(subscription) is True
    assert remote.unsubscribe(subscription) is False  # already gone server-side


def test_pull_queue_subscription_and_flush_ordering(remote):
    subscription = remote.subscribe(
        Q.attr("domain") == "remote-test",
        window=WindowSpec(size_seconds=600.0, aggregate="count"),
    )
    remote.publish_many(_sets(4))  # watermark closes the first window here
    flushed = remote.flush_windows()  # ...and the flush closes the open one
    assert flushed >= 1
    # The daemon pushes window events on the same ordered stream as the
    # flush response, so by the time flush_windows() returned they are
    # already in the local queue -- no sleep, no polling.
    events = subscription.drain()
    assert len(events) == 2
    assert {event.aggregate for event in events} == {"count"}
    assert sum(event.count for event in events) == 4
    assert subscription.id in {sub.id for sub in remote.subscriptions()}


def test_descendant_subscription_pushes_lineage_events(remote):
    root = _sets(1)[0]
    remote.publish(root)
    subscription = remote.subscribe_descendants(root.pname)
    child_record = ProvenanceRecord(
        {"domain": "remote-test", "city": "derived", "sequence": 99},
        ancestors=[root.pname],
    )
    remote.publish(TupleSet([], child_record))
    deadline = time.time() + 5
    events = []
    while not events and time.time() < deadline:
        events = subscription.drain()
        time.sleep(0.01)
    assert [event.watched for event in events] == [root.pname]


# ----------------------------------------------------------------------
# Lifecycle: context managers, idempotent close, dead daemons
# ----------------------------------------------------------------------
def test_every_client_kind_is_a_context_manager_with_idempotent_close(daemon, tmp_path):
    for url in (
        "memory://",
        f"sqlite:///{tmp_path}/close.db",
        "centralized://",
        f"{daemon.address.url}?tenant=closing",
    ):
        client = connect(url)
        assert isinstance(client, (LocalClient, ModelClient)) or client.target.startswith(
            "remote+"
        )
        with client as entered:
            assert entered is client
        client.close()  # second close must be a silent no-op
        client.close()


def test_calls_after_close_fail_typed(daemon):
    client = connect(f"{daemon.address.url}?tenant=after-close")
    client.close()
    with pytest.raises(NetworkError):
        client.stats()


def test_connecting_to_a_dead_port_is_a_network_error():
    probe = PassDaemon()
    address = probe.start()
    probe.stop()
    with pytest.raises(NetworkError):
        connect(address.url)


def test_close_deactivates_local_subscription_mirrors(daemon):
    client = connect(f"{daemon.address.url}?tenant=mirror-close")
    subscription = client.subscribe(Q.attr("city") == "london")
    client.close()
    assert subscription.active is False


@pytest.fixture
def collector_off():
    """So that only ``close()`` can release a descriptor, never a collection."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def test_close_releases_the_socket_descriptor(daemon, collector_off):
    client = connect(f"{daemon.address.url}?tenant=descriptor")
    assert client._sock.fileno() >= 0
    client.close()
    # sock.makefile() shares the descriptor: it is free once both are closed
    assert client._reader_file.closed
    assert client._sock.fileno() == -1


def test_a_refused_hello_releases_the_socket_and_its_reader_thread(collector_off, monkeypatch):
    made = []
    create_connection = socket.create_connection

    def recording(*args, **kwargs):
        made.append(create_connection(*args, **kwargs))
        return made[-1]

    def readers():
        return [thread for thread in threading.enumerate() if thread.name == "pass-client-reader"]

    monkeypatch.setattr(socket, "create_connection", recording)
    before = readers()
    with PassDaemon(tokens={"good": "acme"}) as guarded:
        with pytest.raises(AuthError):
            connect(f"{guarded.address.url}?token=bad")
    assert len(made) == 1 and made[0].fileno() == -1
    assert readers() == before


# ----------------------------------------------------------------------
# Who reads the socket: each caller its own reply, or the listener while
# a subscription is live
# ----------------------------------------------------------------------
def _listeners():
    return [thread for thread in threading.enumerate() if thread.name == "pass-client-reader"]


def _round_sets(tag: int):
    """Four fresh sets whose windows the flush test expects: one closed by the watermark, one by the flush."""
    return [
        TupleSet(ts.readings, ProvenanceRecord({**ts.provenance.attributes, "round": tag})) for ts in _sets(4)
    ]


@pytest.mark.parametrize("delivery", ["queue", "callback"])
def test_window_events_precede_their_flush_across_listener_switches(daemon, delivery):
    before = _listeners()
    with connect(f"{daemon.address.url}?tenant=switch-{delivery}") as remote:
        _subscribe_twice(remote, delivery, before)


def _subscribe_twice(remote, delivery: str, before) -> None:
    for tag in range(2):
        # No subscription: each call reads its own reply, and no listener runs.
        remote.publish(_round_sets(10 + tag)[0])
        remote.query(Q.attr("round") == 10 + tag)
        remote.stats()
        assert _listeners() == before

        delivered = []
        subscription = remote.subscribe(
            Q.attr("round") == tag,
            window=WindowSpec(size_seconds=600.0, aggregate="count"),
            callback=(lambda event: delivered.append((event, threading.current_thread())))
            if delivery == "callback"
            else None,
        )
        remote.publish_many(_round_sets(tag))
        assert remote.flush_windows() >= 1
        # No sleep: the listener routed both events before the flush's reply.
        if delivery == "queue":
            delivered = [(event, None) for event in subscription.drain()]
        else:
            threads = {thread for _, thread in delivered}
            assert [thread.name for thread in threads] == ["pass-client-reader"]
            assert threads.isdisjoint({threading.current_thread()})
        assert [event.count for event, _ in delivered] == [2, 2]

        assert remote.unsubscribe(subscription) is True
        assert _listeners() == before


def test_a_callback_may_call_the_client_whose_listener_runs_it(daemon):
    with connect(f"{daemon.address.url}?tenant=nested-call&timeout=5") as client:
        described = []

        def describe(event) -> None:
            # Runs on the listener, the thread reading the socket: it must read this reply itself.
            described.append(client.describe_record(event.pname).pname())

        client.subscribe(Q.attr("city") == "london", callback=describe)
        sets = _sets(2)
        client.publish_many(sets)
        deadline = time.monotonic() + 5
        while not described and time.monotonic() < deadline:
            time.sleep(0.01)
        assert described == [sets[0].pname]
        assert client.stats()["tenant"] == "nested-call"


def test_threads_sharing_a_client_each_get_their_own_answers(daemon):
    before = _listeners()
    client = connect(f"{daemon.address.url}?tenant=shared-client")
    failures = []

    def worker(index: int) -> None:
        try:
            previous = None
            published = []
            for step in range(50):
                kind = step % 4
                if kind == 0:
                    record = ProvenanceRecord(
                        {"worker": index, "step": step}, ancestors=[previous] if previous is not None else []
                    )
                    tuple_set = TupleSet([SensorReading(f"w{index}", Timestamp(float(step)), {"v": step})], record)
                    assert client.publish(tuple_set).records == [tuple_set.pname]
                    published.append(tuple_set.pname)
                    previous = tuple_set.pname
                elif kind == 1:
                    answer = client.query(Q.attr("worker") == index)
                    assert sorted(answer.records) == sorted(published)
                elif kind == 2:
                    assert sorted(client.ancestors(previous).records) == sorted(published[:-1])
                else:
                    assert client.stats()["tenant"] == "shared-client"
        except BaseException as error:  # reported on the main thread
            failures.append((index, error))

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: a lost hand-over shows as a wrong answer or a hang
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert _listeners() == before
        assert client._replies == {}
    finally:
        client.close()


class _SilentDaemon:
    """A raw listening socket that answers ``hello`` and then reads every request and answers none."""

    def __init__(self) -> None:
        self._server = socket.socket()
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(1)
        self.url = f"pass://127.0.0.1:{self._server.getsockname()[1]}"
        self.requests = 0
        self._peer = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        self._peer, _ = self._server.accept()
        with self._peer.makefile("rb") as reader:
            hello = protocol.read_frame(reader)
            result = {"wire_version": protocol.WIRE_VERSION, "tenant": "silent", "target": "remote+silent"}
            self._peer.sendall(protocol.encode_frame({"id": hello["id"], "ok": True, "result": result}))
            try:
                while protocol.read_frame(reader) is not None:
                    self.requests += 1
            except OSError:
                pass

    def stop(self) -> None:
        """Go away as a stopped daemon does: the connection reset, the port closed."""
        if self._peer is not None:
            with contextlib.suppress(OSError):
                self._peer.shutdown(socket.SHUT_RDWR)
        self._thread.join(5)
        if self._peer is not None:
            self._peer.close()
        self._server.close()


def test_a_silent_daemon_fails_the_call_at_its_timeout_and_every_later_call_at_once():
    silent = _SilentDaemon()
    client = connect(f"{silent.url}?timeout=1")
    try:
        started = time.monotonic()
        with pytest.raises(NetworkError, match="did not answer within 1.0s"):
            client.stats()
        assert 0.9 <= time.monotonic() - started < 3.0
        for call in (client.stats, lambda: client.query(Q.attr("city") == "london"), client.flush_windows):
            started = time.monotonic()
            with pytest.raises(NetworkError, match="did not answer within 1.0s"):
                call()
            assert time.monotonic() - started < 0.5
    finally:
        client.close()
        silent.stop()


def test_a_daemon_that_stops_under_two_waiting_threads_fails_both():
    silent = _SilentDaemon()
    client = connect(silent.url)  # the default 30 s timeout: only the stop may end the calls
    outcomes = []

    def call() -> None:
        try:
            client.stats()
        except BaseException as error:
            outcomes.append(error)

    threads = [threading.Thread(target=call) for _ in range(2)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while silent.requests < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert silent.requests == 2  # one thread reads, the other waits for it
        started = time.monotonic()
        silent.stop()
        for thread in threads:
            thread.join(5)
        assert time.monotonic() - started < 5
        assert [type(error) for error in outcomes] == [NetworkError, NetworkError]
        with pytest.raises(NetworkError):
            client.stats()
    finally:
        client.close()
        silent.stop()
