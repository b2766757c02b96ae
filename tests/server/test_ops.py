"""The op table keeps its promise: complete, wire-stable, and documented.

``repro.server.ops.OPS`` is the one definition of every wire op.  These
tests hold the things derived from it to it: each row has a server side
and each ``RemoteClient`` façade override a row; the frames both ends
write for a fixed session equal the ones captured before the table
existed; and the ``docs/SERVER.md`` table is the table's own rendering.
(The per-field argument checks are driven by Hypothesis in
``test_protocol.py``.)
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

from envelopes import capture

from repro.api.client import _OBSERVED_OPS, PassClient
from repro.server import PassDaemon, RemoteClient, ops, protocol
from repro.server.monitor import Monitor

HERE = Path(__file__).resolve().parent
SERVER_DOC = HERE.parents[1] / "docs" / "SERVER.md"

#: RemoteClient overrides that are not one same-named op
_COMPOSED = {
    "rebuild_lineage_index": ("rebuild_index", "task_status"),  # submit + poll
    "subscriptions": (),  # answered from the local mirrors
    "close": (),  # socket teardown, no frame
}


# ----------------------------------------------------------------------
# Completeness
# ----------------------------------------------------------------------
def test_every_row_has_a_server_side():
    for op in ops.OPS.values():
        if op.served_by == ops.FORWARD:
            assert hasattr(PassClient, op.name), f"no façade method for {op.name!r}"
        elif op.served_by == ops.MONITOR:
            assert callable(getattr(Monitor, op.name, None)), op.name
        else:
            assert op.served_by == ops.CONNECTION
            handler = getattr(PassDaemon, "_handle_" + op.name, None)
            assert callable(handler), f"no PassDaemon._handle_{op.name}"
            # The handler takes exactly the row's fields, under their wire names.
            parameters = list(inspect.signature(handler).parameters)[2:]
            assert parameters == [field.name for field in op.fields], op.name


def test_forwarded_rows_match_the_facade_signatures():
    for op in ops.OPS.values():
        if op.served_by != ops.FORWARD:
            continue
        served = inspect.getattr_static(PassClient, op.name)
        if isinstance(served, property):
            assert op.fields == ()
            continue
        parameters = inspect.signature(served).parameters
        for field in op.fields:
            assert field.name in parameters, f"{op.name}() takes no {field.name!r}"
            required = parameters[field.name].default is inspect.Parameter.empty
            assert field.required == required, (op.name, field.name)


def test_every_facade_override_of_the_remote_client_maps_to_a_row():
    overridden = [
        name
        for name in vars(RemoteClient)
        if not name.startswith("_") and hasattr(PassClient, name)
    ]
    assert "publish" in overridden and "supports_lineage" in overridden
    for name in overridden:
        for op in _COMPOSED.get(name, (name,)):
            assert op in ops.OPS, f"RemoteClient.{name} has no row {op!r}"


def test_the_remote_client_only_invokes_ops_the_table_declares():
    source = inspect.getsource(RemoteClient)
    invoked = set(re.findall(r'self\._invoke\(\s*"(\w+)"', source))
    assert invoked <= set(ops.OPS)
    # ...and everything but the two server-only conveniences is reachable.
    assert set(ops.OPS) - invoked == {"ping", "subscriptions"}
    assert not re.search(r'self\._call\(\s*"', source), "a stub bypasses the table"


def test_observed_ops_are_read_from_the_table():
    assert set(_OBSERVED_OPS) <= set(ops.OPS)
    assert _OBSERVED_OPS == ops.OBSERVED_OPS
    for name in _OBSERVED_OPS:
        assert getattr(getattr(RemoteClient, name), "_observed", False), name


def test_wire_version_is_unchanged():
    assert protocol.WIRE_VERSION == 1


# ----------------------------------------------------------------------
# Envelope golden: the wire did not move
# ----------------------------------------------------------------------
def test_request_and_response_frames_equal_the_pre_table_capture():
    expected = (HERE / "fixtures" / "envelopes.txt").read_text(encoding="utf-8").splitlines()
    captured = capture()
    exercised = {
        re.match(r'> \{"id":\d+,"op":"(\w+)"', line).group(1)
        for line in expected
        if line.startswith(">")
    }
    assert exercised == set(ops.OPS), "the golden session must exercise every op"
    assert len(captured) == len(expected)
    for number, (got, want) in enumerate(zip(captured, expected), start=1):
        assert got == want, f"frame {number} differs from fixtures/envelopes.txt"


# ----------------------------------------------------------------------
# Docs are generated from the table
# ----------------------------------------------------------------------
def test_server_doc_operations_table_is_the_tables_own_rendering():
    text = SERVER_DOC.read_text(encoding="utf-8")
    section = text.split("### Operations", 1)[1].split("###", 1)[0]
    documented = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert documented == ops.operations_table(), (
        "docs/SERVER.md is stale: paste the output of "
        "`PYTHONPATH=src python -c 'from repro.server.ops import operations_table; "
        "print(operations_table())'` under '### Operations'"
    )
