"""The ``pass://`` client: façade parity with ``memory://`` over a socket.

The contract of :class:`~repro.server.remote.RemoteClient` is that code
written against the in-process façade runs unchanged against a daemon:
same answers, same typed errors, same subscription idioms (callback and
pull-queue), same happens-before ordering between window flushes and
their events.  These tests run each idiom against both targets and
compare.
"""

from __future__ import annotations

import gc
import json
import socket
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
