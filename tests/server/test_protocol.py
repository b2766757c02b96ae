"""Property-based tests for the PASS wire protocol.

Everything that crosses a ``pass://`` connection must survive
serialization *exactly*: the full predicate algebra, queries, window
specs, records, tuple sets, results and explain trees.  Hypothesis
drives arbitrary instances through ``*_to_wire`` -> JSON bytes ->
``*_from_wire`` and asserts identity; a parallel set of checks pins the
framing layer and the stable error-code table (part of the protocol
contract -- renaming a code is a wire-version break).  The same
strategies then attack a live daemon: for every op of the table and
every field it declares, a value of the wrong JSON type (or a field the
op does not declare) must come back as the typed ``protocol`` error
naming op and field, followed by EOF.
"""

from __future__ import annotations

import io
import json
import socket
import string
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import (
    TRUE,
    AgentIs,
    AncestorOf,
    And,
    AnnotationMatches,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    IsRaw,
    NearLocation,
    Not,
    Or,
    Query,
    TimeWindowOverlaps,
)
from repro.core.tupleset import SensorReading, TupleSet
from repro.errors import (
    ERROR_CODES,
    PassError,
    ProtocolError,
    error_code,
    error_from_code,
)
from repro.query.explain import Explain
from repro.server import PassDaemon, ops, protocol
from repro.stream.subscription import LineageEvent, MatchEvent, WindowEvent
from repro.stream.windows import AGGREGATES, WindowSpec

COMMON = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)
scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.builds(Timestamp, st.floats(min_value=0, max_value=10**9, allow_nan=False)),
    st.builds(
        GeoPoint,
        st.floats(min_value=-90, max_value=90, allow_nan=False),
        st.floats(min_value=-180, max_value=180, allow_nan=False),
    ),
)
pnames = st.binary(min_size=32, max_size=32).map(lambda raw: PName(raw.hex()))

leaf_predicates = st.one_of(
    st.just(TRUE),
    st.builds(AttributeEquals, names, scalars),
    st.builds(
        AttributeRange,
        names,
        low=scalars,  # at least one bound is required; high may stay open
        high=st.none() | scalars,
        include_low=st.booleans(),
        include_high=st.booleans(),
    ),
    st.builds(AttributeContains, names, st.text(min_size=1, max_size=10)),
    st.builds(AttributeIn, names, st.lists(scalars, min_size=1, max_size=4).map(tuple)),
    st.builds(AttributeExists, names),
    st.builds(
        NearLocation,
        names,
        st.builds(
            GeoPoint,
            st.floats(min_value=-90, max_value=90, allow_nan=False),
            st.floats(min_value=-180, max_value=180, allow_nan=False),
        ),
        st.floats(min_value=0.1, max_value=20000, allow_nan=False),
    ),
    st.builds(
        TimeWindowOverlaps,
        st.builds(Timestamp, st.floats(min_value=0, max_value=10**8, allow_nan=False)),
        st.builds(
            Timestamp, st.floats(min_value=10**8, max_value=10**9, allow_nan=False)
        ),
        start_attr=names,
        end_attr=names,
    ),
    st.builds(AgentIs, st.none() | names, st.none() | names, st.none() | names),
    st.builds(AnnotationMatches, names, st.none() | scalars),
    st.builds(IsRaw, st.booleans()),
    st.builds(DerivedFrom, pnames, st.booleans()),
    st.builds(AncestorOf, pnames, st.booleans()),
)
predicates = st.recursive(
    leaf_predicates,
    lambda children: st.one_of(
        st.builds(And, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Not, children),
    ),
    max_leaves=8,
)
queries = st.builds(
    Query,
    predicate=predicates,
    limit=st.none() | st.integers(min_value=1, max_value=1000),
    include_removed=st.booleans(),
    order_by=st.none() | names,
)


@st.composite
def window_specs(draw):
    size = draw(st.floats(min_value=1.0, max_value=86400.0, allow_nan=False))
    slide = draw(st.none() | st.floats(min_value=0.5, max_value=size, allow_nan=False))
    aggregate = draw(st.sampled_from(AGGREGATES))
    value_attr = draw(names) if aggregate != "count" else draw(st.none() | names)
    return WindowSpec(
        size_seconds=size,
        slide_seconds=slide,
        aggregate=aggregate,
        value_attr=value_attr,
        group_by=draw(st.none() | names),
        time_attr=draw(names),
    )


records = st.builds(
    ProvenanceRecord,
    st.dictionaries(names, scalars, min_size=1, max_size=5),
    ancestors=st.lists(pnames, max_size=3),
)
readings = st.builds(
    SensorReading,
    names,
    st.builds(Timestamp, st.floats(min_value=0, max_value=10**9, allow_nan=False)),
    st.dictionaries(names, scalars, min_size=1, max_size=4),
    st.none()
    | st.builds(
        GeoPoint,
        st.floats(min_value=-90, max_value=90, allow_nan=False),
        st.floats(min_value=-180, max_value=180, allow_nan=False),
    ),
)
tuple_sets = st.builds(TupleSet, st.lists(readings, max_size=4), records)


def _through_json(payload):
    """The wire's own representation: the dict after a JSON round trip."""
    return json.loads(json.dumps(payload, separators=(",", ":")))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@COMMON
@given(predicate=predicates)
def test_predicate_round_trip(predicate):
    wire = _through_json(protocol.predicate_to_wire(predicate))
    assert protocol.predicate_from_wire(wire) == predicate


@COMMON
@given(query=queries)
def test_query_round_trip(query):
    wire = _through_json(protocol.query_to_wire(query))
    assert protocol.query_from_wire(wire) == query


@COMMON
@given(window=st.none() | window_specs())
def test_window_round_trip(window):
    wire = _through_json(protocol.window_to_wire(window))
    assert protocol.window_from_wire(wire) == window


@COMMON
@given(record=records)
def test_record_round_trip(record):
    wire = _through_json(protocol.record_to_wire(record))
    decoded = protocol.record_from_wire(wire)
    # Identity is the contract: the round trip must preserve the pname.
    assert decoded.pname() == record.pname()
    assert decoded.to_dict() == record.to_dict()


@COMMON
@given(tuple_set=tuple_sets)
def test_tuple_set_round_trip(tuple_set):
    wire = _through_json(protocol.tuple_set_to_wire(tuple_set))
    decoded = protocol.tuple_set_from_wire(wire)
    assert decoded.pname == tuple_set.pname
    assert list(decoded) == list(tuple_set)


@COMMON
@given(
    pname_list=st.lists(pnames, max_size=5),
    latency=st.floats(min_value=0, max_value=10**6, allow_nan=False),
    messages=st.integers(min_value=0, max_value=10**6),
    notes=st.lists(st.text(max_size=30), max_size=3),
    total=st.none() | st.integers(min_value=0, max_value=10**6),
    offset=st.integers(min_value=0, max_value=1000),
)
def test_result_round_trip(pname_list, latency, messages, notes, total, offset):
    from repro.api.results import Cost, Result

    result = Result(
        records=pname_list,
        cost=Cost(latency_ms=latency, messages=messages, sites=["a", "b"]),
        notes=notes,
        total=total,
        offset=offset,
    )
    wire = _through_json(protocol.result_to_wire(result))
    assert protocol.result_from_wire(wire) == result


def test_explain_round_trip_with_children():
    child = Explain(
        site="dht-3",
        path="attr-eq via index",
        path_kind="attr-eq",
        estimated_rows=10,
        actual_rows=7,
        rows_scanned=10,
        cache_hit=True,
        used_index=True,
        shape="eq(city)",
        notes=["candidate pruning"],
    )
    parent = Explain(
        site="dht",
        path="scatter-gather",
        path_kind="scatter",
        estimated_rows=40,
        actual_rows=7,
        rows_scanned=40,
        children=[child],
    )
    wire = _through_json(protocol.explain_to_wire(parent))
    decoded = protocol.explain_from_wire(wire)
    assert decoded.to_dict() == parent.to_dict()
    assert decoded.children[0].site == "dht-3"


@COMMON
@given(record=records, sub=names)
def test_event_round_trips(record, sub):
    match = MatchEvent(subscription_id=sub, pname=record.pname(), record=record)
    decoded = protocol.event_from_wire(_through_json(protocol.event_to_wire(match)))
    assert isinstance(decoded, MatchEvent)
    assert (decoded.subscription_id, decoded.pname) == (sub, record.pname())

    lineage = LineageEvent(
        subscription_id=sub, watched=record.pname(), pname=record.pname(), record=record
    )
    decoded = protocol.event_from_wire(_through_json(protocol.event_to_wire(lineage)))
    assert isinstance(decoded, LineageEvent)
    assert decoded.watched == record.pname()

    window = WindowEvent(
        subscription_id=sub,
        window_start=0.0,
        window_end=300.0,
        group="london",
        aggregate="mean",
        value=41.5,
        count=3,
    )
    decoded = protocol.event_from_wire(_through_json(protocol.event_to_wire(window)))
    assert isinstance(decoded, WindowEvent)
    assert (decoded.group, decoded.value, decoded.count) == ("london", 41.5, 3)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
@COMMON
@given(
    payloads=st.lists(
        st.dictionaries(names, st.one_of(st.integers(), st.text(max_size=10))),
        min_size=1,
        max_size=5,
    )
)
def test_framing_round_trip_stream(payloads):
    stream = io.BytesIO(b"".join(protocol.encode_frame(p) for p in payloads))
    decoded = []
    while True:
        frame = protocol.read_frame(stream)
        if frame is None:
            break
        decoded.append(frame)
    assert decoded == payloads


def test_eof_mid_frame_is_a_protocol_error():
    whole = protocol.encode_frame({"op": "ping"})
    for cut in (2, len(whole) - 1):  # inside the header, inside the body
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(whole[:cut]))


def test_clean_eof_is_none():
    assert protocol.read_frame(io.BytesIO(b"")) is None


def test_oversized_frame_is_refused_without_allocating():
    header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError):
        protocol.frame_length(header)


def test_non_object_bodies_are_protocol_errors():
    for body in (b"[1,2]", b'"x"', b"42", b"\xff\xfe", b"{not json"):
        with pytest.raises(ProtocolError):
            protocol.decode_body(body)


# ----------------------------------------------------------------------
# Stable error codes
# ----------------------------------------------------------------------
def test_every_error_code_round_trips_to_the_same_type():
    for code, cls in ERROR_CODES.items():
        assert error_code(cls("boom")) == code
        rebuilt = error_from_code(code, "boom")
        assert type(rebuilt) is cls
        assert str(rebuilt) == "boom"


def test_unknown_errors_degrade_to_the_generic_code():
    assert error_code(RuntimeError("?")) == "error"
    assert type(error_from_code("no-such-code", "?")) is PassError


def test_wire_error_envelope_shape():
    envelope = protocol.error_to_wire(ProtocolError("bad frame"))
    assert envelope == {"code": "protocol", "message": "bad frame"}


# ----------------------------------------------------------------------
# Argument checks: every op x every declared field, against a live daemon
# ----------------------------------------------------------------------
json_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(names, st.integers(), max_size=2),
)

#: a well-formed wire value for each argument codec of the table
VALID_WIRE_VALUES = {
    ops.TEXT: names,
    ops.INTEGER: st.integers(min_value=0, max_value=100),
    ops.PNAME: pnames.map(lambda pname: pname.digest),
    ops.QUERY: queries.map(protocol.query_to_wire),
    ops.WINDOW: window_specs().map(protocol.window_to_wire),
    ops.TUPLE_SET: tuple_sets.map(protocol.tuple_set_to_wire),
    ops.TUPLE_SETS: st.lists(tuple_sets, max_size=2).map(ops.TUPLE_SETS.to_wire),
}

ATTACKS = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def daemon():
    with PassDaemon(sample_interval_s=None) as running:
        yield running


def _required_args(draw, op, besides=None):
    return {
        field.name: draw(VALID_WIRE_VALUES[field.codec])
        for field in op.fields
        if field.required and field is not besides
    }


def _answer_then_eof(daemon, op, args):
    """Send ``op`` (after a hello, unless it *is* the hello); returns the
    error envelope after checking that the daemon hung up behind it."""
    with socket.create_connection((daemon.address.host, daemon.address.port), timeout=5) as sock:
        stream = sock.makefile("rb")
        if op != "hello":
            sock.sendall(protocol.encode_frame({"id": 1, "op": "hello", "args": {}}))
            assert protocol.read_frame(stream)["ok"] is True
        sock.sendall(protocol.encode_frame({"id": 2, "op": op, "args": args}))
        answer = protocol.read_frame(stream)
        assert answer["id"] == 2 and answer["ok"] is False
        assert protocol.read_frame(stream) is None, "protocol errors close the connection"
        return answer["error"]


def test_every_argument_codec_of_the_table_has_a_strategy():
    used = {field.codec for op in ops.OPS.values() for field in op.fields}
    assert used == set(VALID_WIRE_VALUES)


@pytest.mark.parametrize(
    "op,field",
    [(op, field) for op in ops.OPS.values() for field in op.fields],
    ids=lambda item: item.name,
)
@ATTACKS
@given(data=st.data())
def test_a_mistyped_field_is_a_protocol_error_naming_op_and_field(daemon, op, field, data):
    wrong = data.draw(json_values.filter(lambda value: type(value) is not field.codec.json_type))
    args = _required_args(data.draw, op, besides=field)
    args[field.name] = wrong
    error = _answer_then_eof(daemon, op.name, args)
    assert error["code"] == "protocol", error
    assert error["message"].startswith(f"{op.name}: field {field.name!r} must be a JSON "), error


@pytest.mark.parametrize("op", list(ops.OPS.values()), ids=lambda op: op.name)
@ATTACKS
@given(data=st.data())
def test_an_undeclared_field_is_a_protocol_error_naming_op_and_field(daemon, op, data):
    declared = {field.name for field in op.fields}
    stray = data.draw(names.filter(lambda name: name not in declared))
    args = _required_args(data.draw, op)
    args[stray] = data.draw(json_values)
    error = _answer_then_eof(daemon, op.name, args)
    assert error == {"code": "protocol", "message": f"{op.name}: unknown field {stray!r}"}


@pytest.mark.parametrize(
    "op",
    [op for op in ops.OPS.values() if any(field.required for field in op.fields)],
    ids=lambda op: op.name,
)
def test_a_missing_required_field_is_a_protocol_error_naming_it(daemon, op):
    missing = next(field for field in op.fields if field.required)
    error = _answer_then_eof(daemon, op.name, {})
    assert error == {
        "code": "protocol",
        "message": f"{op.name}: missing required field {missing.name!r}",
    }
