"""Property-based tests for the PASS wire protocol.

Everything that crosses a ``pass://`` connection must survive
serialization *exactly*: the full predicate algebra, queries, window
specs, records, tuple sets, results and explain trees.  Hypothesis
drives arbitrary instances through ``*_to_wire`` -> JSON bytes ->
``*_from_wire`` and asserts identity; a parallel set of checks pins the
framing layer and the stable error-code table (part of the protocol
contract -- renaming a code is a wire-version break).  The dataclass
codecs are derived from one declaration row per wire type
(``protocol.WIRE_TYPES``), so every row is round-tripped, and the
engine's rules -- MRO dispatch, absent fields taking their dataclass
default, JSON types read off the annotations -- are held row by row.
The same strategies then attack a live daemon: for every op of the
table and every field it declares, and for every typed field nested in
a query or window it carries, a value of the wrong JSON type (or a field
the op does not declare) must come back as the typed ``protocol`` error
naming op or kind and field, followed by EOF.
"""

from __future__ import annotations

import inspect
import io
import json
import socket
import string
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.api.results import Cost, Result
from repro.core import query as query_module
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
    Predicate,
    Query,
    TimeWindowOverlaps,
)
from repro.core.tupleset import SensorReading, TupleSet, readings_to_bytes
from repro.errors import (
    ERROR_CODES,
    ConfigurationError,
    PassError,
    ProtocolError,
    QueryError,
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
#: the example count is the profile's: five times over under ``--hypothesis-profile=thorough``
ROUND_TRIPS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

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

#: one strategy per leaf predicate class of the algebra
LEAF_PREDICATES = {
    type(TRUE): st.just(TRUE),
    AttributeEquals: st.builds(AttributeEquals, names, scalars),
    AttributeRange: st.builds(
        AttributeRange,
        names,
        low=scalars,  # at least one bound is required; high may stay open
        high=st.none() | scalars,
        include_low=st.booleans(),
        include_high=st.booleans(),
    ),
    AttributeContains: st.builds(AttributeContains, names, st.text(min_size=1, max_size=10)),
    AttributeIn: st.builds(AttributeIn, names, st.lists(scalars, min_size=1, max_size=4).map(tuple)),
    AttributeExists: st.builds(AttributeExists, names),
    NearLocation: st.builds(
        NearLocation,
        names,
        st.builds(
            GeoPoint,
            st.floats(min_value=-90, max_value=90, allow_nan=False),
            st.floats(min_value=-180, max_value=180, allow_nan=False),
        ),
        st.floats(min_value=0.1, max_value=20000, allow_nan=False),
    ),
    TimeWindowOverlaps: st.builds(
        TimeWindowOverlaps,
        st.builds(Timestamp, st.floats(min_value=0, max_value=10**8, allow_nan=False)),
        st.builds(
            Timestamp, st.floats(min_value=10**8, max_value=10**9, allow_nan=False)
        ),
        start_attr=names,
        end_attr=names,
    ),
    AgentIs: st.builds(AgentIs, names, st.none() | names, st.none() | names),
    AnnotationMatches: st.builds(AnnotationMatches, names, st.none() | scalars),
    IsRaw: st.builds(IsRaw, st.booleans()),
    DerivedFrom: st.builds(DerivedFrom, pnames, st.booleans()),
    AncestorOf: st.builds(AncestorOf, pnames, st.booleans()),
}
leaf_predicates = st.one_of(*LEAF_PREDICATES.values())
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
costs = st.builds(
    Cost,
    latency_ms=st.floats(min_value=0, max_value=10**6, allow_nan=False),
    messages=st.integers(min_value=0, max_value=10**6),
    bytes=st.integers(min_value=0, max_value=10**9),
    rows_scanned=st.integers(min_value=0, max_value=10**6),
    sites=st.lists(names, max_size=3),
)

#: one strategy per declared wire type
INSTANCES = {
    **LEAF_PREDICATES,
    And: st.builds(And, st.lists(predicates, min_size=1, max_size=3).map(tuple)),
    Or: st.builds(Or, st.lists(predicates, min_size=1, max_size=3).map(tuple)),
    Not: st.builds(Not, predicates),
    Query: queries,
    WindowSpec: window_specs(),
    Cost: costs,
    Result: st.builds(
        Result,
        records=st.lists(pnames, max_size=5),
        cost=costs,
        notes=st.lists(st.text(max_size=30), max_size=3),
        total=st.none() | st.integers(min_value=0, max_value=10**6),
        offset=st.integers(min_value=0, max_value=1000),
    ),
    MatchEvent: st.builds(MatchEvent, names, pnames, records),
    WindowEvent: st.builds(
        WindowEvent,
        names,
        st.floats(min_value=0, max_value=10**9, allow_nan=False),
        st.floats(min_value=0, max_value=10**9, allow_nan=False),
        st.none() | scalars,
        st.sampled_from(AGGREGATES),
        st.none() | st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=10**6),
    ),
    LineageEvent: st.builds(LineageEvent, names, pnames, pnames, records),
}


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
# The declaration: complete, and its three rules hold for every row
# ----------------------------------------------------------------------
def _public_codec(row):
    """The public ``*_to_wire`` / ``*_from_wire`` pair a row is reached through."""
    if "kind" in row.head:
        return protocol.predicate_to_wire, protocol.predicate_from_wire
    if "type" in row.head:
        return protocol.event_to_wire, protocol.event_from_wire
    return {
        Query: (protocol.query_to_wire, protocol.query_from_wire),
        WindowSpec: (protocol.window_to_wire, protocol.window_from_wire),
        Result: (protocol.result_to_wire, protocol.result_from_wire),
        # a cost only travels inside a result
        Cost: (
            lambda cost: protocol.result_to_wire(Result(cost=cost))["cost"],
            lambda payload: protocol.result_from_wire({"cost": payload}).cost,
        ),
    }[row.cls]


def _row_id(row):
    return row.label.replace("'", "").replace(" ", "-")


def test_every_predicate_and_event_class_has_exactly_one_row():
    declared = [row.cls for row in protocol.WIRE_TYPES]
    concrete = {
        cls
        for cls in vars(query_module).values()
        if isinstance(cls, type) and issubclass(cls, Predicate) and not inspect.isabstract(cls)
    }
    assert type(TRUE) in concrete and len(concrete) == 16
    for cls in concrete | {MatchEvent, WindowEvent, LineageEvent, Query, WindowSpec, Result, Cost}:
        assert declared.count(cls) == 1, cls.__name__
    assert len(declared) == len(concrete) + 7


def test_every_row_has_a_strategy():
    assert {row.cls for row in protocol.WIRE_TYPES} == set(INSTANCES)


@pytest.mark.parametrize("row", protocol.WIRE_TYPES, ids=_row_id)
@ROUND_TRIPS
@given(data=st.data())
def test_every_row_round_trips_through_json(row, data):
    value = data.draw(INSTANCES[row.cls])
    to_wire, from_wire = _public_codec(row)
    wire = _through_json(to_wire(value))
    assert from_wire(wire) == value
    assert _through_json(to_wire(from_wire(wire))) == wire


def test_the_trivial_predicate_decodes_to_the_one_instance():
    assert protocol.predicate_from_wire({"kind": "true"}) is TRUE
    assert protocol.query_from_wire({}).predicate is TRUE


def test_a_subclass_keeps_its_parents_form():
    class CityIs(AttributeEquals):
        pass

    wire = protocol.predicate_to_wire(CityIs("city", "london"))
    assert wire == {"kind": "eq", "name": "city", "value": "london"}
    assert protocol.predicate_from_wire(wire) == AttributeEquals("city", "london")


def test_an_undeclared_class_has_no_wire_form():
    class Never(Predicate):
        def matches(self, pname, record, lineage=None) -> bool:
            return False

    with pytest.raises(ProtocolError, match="predicate Never has no wire form"):
        protocol.predicate_to_wire(Never())
    with pytest.raises(ProtocolError, match="predicate Never has no wire form"):
        protocol.predicate_to_wire(Not(Never()))
    with pytest.raises(ProtocolError, match="event str has no wire form"):
        protocol.event_to_wire("match")


@pytest.mark.parametrize(
    "decode,payload,message",
    [
        (protocol.predicate_from_wire, {"kind": "nope"}, "unknown predicate kind 'nope'"),
        (protocol.predicate_from_wire, {"name": "city"}, "unknown predicate kind None"),
        (protocol.predicate_from_wire, {"kind": ["eq"]}, "unknown predicate kind ['eq']"),
        (protocol.event_from_wire, {"type": "nope"}, "unknown event type 'nope'"),
        (protocol.predicate_from_wire, ["kind", "eq"], "predicate payload must be an object"),
        (protocol.query_from_wire, "everything", "query payload must be an object"),
    ],
)
def test_an_unknown_tag_or_a_non_object_is_refused(decode, payload, message):
    with pytest.raises(ProtocolError) as caught:
        decode(payload)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "decode,payload,expected",
    [
        (protocol.predicate_from_wire, {"kind": "range", "name": "n", "low": 1}, AttributeRange("n", low=1)),
        (protocol.predicate_from_wire, {"kind": "is_raw"}, IsRaw()),
        (protocol.predicate_from_wire, {"kind": "agent", "name": "emt"}, AgentIs("emt")),
        (protocol.predicate_from_wire, {"kind": "derived_from", "ancestor": "ab" * 32}, DerivedFrom(PName("ab" * 32))),
        (protocol.query_from_wire, {}, Query()),
        (protocol.query_from_wire, {"limit": 3}, Query(limit=3)),
        (protocol.window_from_wire, {"size_seconds": 60}, WindowSpec(60)),
        (protocol.result_from_wire, {}, Result()),
        (protocol.result_from_wire, {"cost": {"messages": 2}}, Result(cost=Cost(messages=2))),
    ],
)
def test_an_absent_defaulted_field_takes_the_dataclass_default(decode, payload, expected):
    assert decode(payload) == expected


@pytest.mark.parametrize(
    "decode,payload,message",
    [
        (protocol.predicate_from_wire, {"kind": "range", "low": 1}, "'range' predicate: missing required field 'name'"),
        (protocol.predicate_from_wire, {"kind": "eq", "name": "n"}, "'eq' predicate: missing required field 'value'"),
        (
            protocol.predicate_from_wire,
            {"kind": "near", "name": "at", "lat": 1.0, "radius_km": 2.0},
            "'near' predicate: missing required field 'lon'",
        ),
        (protocol.predicate_from_wire, {"kind": "not"}, "'not' predicate: missing required field 'part'"),
        (protocol.window_from_wire, {"aggregate": "count"}, "window: missing required field 'size_seconds'"),
        (protocol.event_from_wire, {"type": "match", "sub": "s"}, "'match' event: missing required field 'pname'"),
    ],
)
def test_an_absent_required_field_is_refused(decode, payload, message):
    with pytest.raises(ProtocolError) as caught:
        decode(payload)
    assert str(caught.value) == message


def test_a_value_the_dataclass_refuses_keeps_its_own_type():
    # The same typed error an in-process caller gets from the constructor.
    with pytest.raises(QueryError, match="at least one bound"):
        protocol.predicate_from_wire({"kind": "range", "name": "n"})
    with pytest.raises(ConfigurationError, match="unknown aggregate"):
        protocol.window_from_wire({"size_seconds": 60, "aggregate": "median"})


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


# ----------------------------------------------------------------------
# Nested field types: every declared field refuses a mistyped JSON value
# ----------------------------------------------------------------------
#: every field of every row whose JSON type can be wrong (a tagged value can be any JSON)
TYPED_FIELDS = [(row, field) for row in protocol.WIRE_TYPES for field in row.fields if field.types is not None]

#: the frames that decoded to a different question before nested fields were
#: checked: P4-removed sets included, a predicate matching nothing, IN ('a', 'b'), LIMIT 1
DIFFERENT_QUESTIONS = {
    "include_removed-no": (Query, {"include_removed": "no"}, "query", "include_removed"),
    "is_raw-no": (IsRaw, {"kind": "is_raw", "raw": "no"}, "'is_raw' predicate", "raw"),
    "in-a-string": (AttributeIn, {"kind": "in", "name": "n", "values": "ab"}, "'in' predicate", "values"),
    "limit-true": (Query, {"limit": True}, "query", "limit"),
}


def _mistyped(field, data):
    return data.draw((json_values | st.none()).filter(lambda value: not field.admits(value)))


def _request_carrying(row, payload):
    """The op and args of a request carrying ``payload`` as a value of ``row``."""
    if "kind" in row.head:
        return "query", {"query": {"predicate": payload}}
    if row.cls is Query:
        return "query", {"query": payload}
    assert row.cls is WindowSpec
    return "subscribe", {"window": payload}


def _field_id(item):
    return f"{_row_id(item[0])}.{item[1].key}"


#: the typed fields a request can carry (results, costs and events only travel to the client)
REQUEST_FIELDS = [
    (row, field) for row, field in TYPED_FIELDS if "kind" in row.head or row.cls in (Query, WindowSpec)
]


def test_every_plain_field_is_typed():
    untyped = [
        (row.label, field.key)
        for row in protocol.WIRE_TYPES
        for field in row.fields
        if field.types is None and field.from_wire is None
    ]
    assert untyped == []
    assert len(TYPED_FIELDS) > 50 and len(REQUEST_FIELDS) > 30


@pytest.mark.parametrize("row,field", TYPED_FIELDS, ids=list(map(_field_id, TYPED_FIELDS)))
@ATTACKS
@given(data=st.data())
def test_a_mistyped_nested_field_is_a_protocol_error_naming_kind_and_field(row, field, data):
    to_wire, from_wire = _public_codec(row)
    payload = _through_json(to_wire(data.draw(INSTANCES[row.cls])))
    payload[field.key] = _mistyped(field, data)
    with pytest.raises(ProtocolError) as caught:
        from_wire(payload)
    assert str(caught.value).startswith(f"{row.label}: field {field.key!r} must be a JSON {field.words}, got ")


@pytest.mark.parametrize("row,field", REQUEST_FIELDS, ids=list(map(_field_id, REQUEST_FIELDS)))
@ATTACKS
@given(data=st.data())
def test_a_mistyped_nested_field_closes_the_connection(daemon, row, field, data):
    to_wire, _ = _public_codec(row)
    payload = _through_json(to_wire(data.draw(INSTANCES[row.cls])))
    payload[field.key] = _mistyped(field, data)
    error = _answer_then_eof(daemon, *_request_carrying(row, payload))
    assert error["code"] == "protocol", error
    assert error["message"].startswith(f"{row.label}: field {field.key!r} must be a JSON "), error


@pytest.mark.parametrize("cls,payload,label,key", DIFFERENT_QUESTIONS.values(), ids=list(DIFFERENT_QUESTIONS))
def test_the_frames_that_asked_a_different_question_are_refused(daemon, cls, payload, label, key):
    row = next(row for row in protocol.WIRE_TYPES if row.cls is cls)
    with pytest.raises(ProtocolError) as caught:
        _public_codec(row)[1](payload)
    assert str(caught.value).startswith(f"{label}: field {key!r} must be a JSON ")
    error = _answer_then_eof(daemon, *_request_carrying(row, payload))
    assert error["code"] == "protocol" and error["message"] == str(caught.value)


# ----------------------------------------------------------------------
# Readings: checked field by field, stored without a SensorReading
# ----------------------------------------------------------------------
#: the readings that were accepted and stored as different data before
#: each field was checked: verbatim timestamps, a truncated place, a dropped key
REFUSED_READINGS = {
    "timestamp-true": ({"timestamp": True}, "field 'timestamp' must be a JSON number, got boolean"),
    "timestamp-yesterday": ({"timestamp": "yesterday"}, "field 'timestamp' must be a JSON number, got string"),
    "timestamp-null": ({"timestamp": None}, "field 'timestamp' must be a JSON number, got null"),
    "location-three": ({"location": [1.0, 2.0, 99]}, "field 'location' must be two JSON numbers"),
    "location-true": ({"location": [True, 2.0]}, "field 'location' must be two JSON numbers, got [True, 2.0]"),
    "sensor_id-number": ({"sensor_id": 7}, "field 'sensor_id' must be a non-empty JSON string, got 7"),
    "unknown-key": ({"unit": "kph"}, "unknown field 'unit'"),
    "timestamp-value-text": (
        {"values": {"t": {"__type__": "timestamp", "seconds": "noon"}}},
        "field 'values': value 't': a tagged Timestamp's seconds must be JSON numbers",
    ),
}


def _set_carrying(reading_fields: dict) -> dict:
    """A tuple set's wire form whose second reading is overridden by ``reading_fields``."""
    readings = [
        {"sensor_id": "cam-1", "timestamp": 1.0, "values": {"v": 1}, "location": [1.0, 2.0]},
        {"sensor_id": "cam-1", "timestamp": 2.0, "values": {"v": 2}, "location": [1.0, 2.0], **reading_fields},
    ]
    return {"provenance": protocol.record_to_wire(ProvenanceRecord({"domain": "readings"})), "readings": readings}


@pytest.mark.parametrize("fields,message", REFUSED_READINGS.values(), ids=list(REFUSED_READINGS))
def test_a_reading_that_would_be_stored_as_different_data_is_refused(daemon, fields, message):
    payload = _set_carrying(fields)
    with pytest.raises(ProtocolError) as caught:
        protocol.tuple_set_from_wire(payload)
    assert str(caught.value).startswith(f"malformed readings payload: reading 1: {message}")
    error = _answer_then_eof(daemon, "publish", {"tuple_set": payload})
    assert error == {"code": "protocol", "message": str(caught.value)}
    error = _answer_then_eof(daemon, "publish_many", {"tuple_sets": [_set_carrying({}), payload]})
    assert error == {"code": "protocol", "message": str(caught.value)}


def test_a_published_set_is_stored_without_building_a_reading(daemon, monkeypatch):
    place = GeoPoint(51.5, -0.12)
    sets = [
        TupleSet(
            [SensorReading("cam-1", Timestamp(60.0 * n + i), {"v": i, "tags": ("a", i)}, place) for i in range(8)],
            ProvenanceRecord({"domain": "counted", "n": n}),
        )
        for n in range(3)
    ]
    built = []
    original = SensorReading.__post_init__
    monkeypatch.setattr(SensorReading, "__post_init__", lambda self: (built.append(self), original(self))[1])
    with connect(f"{daemon.address.url}?tenant=counted") as client:
        client.publish(sets[0])
        client.publish_many(sets[1:])
    assert built == []
    monkeypatch.undo()
    store = daemon._tenants["counted"].client.store
    for tuple_set in sets:
        assert store.backend.get_payload(tuple_set.pname) == readings_to_bytes(tuple_set)
        assert store.get_readings(tuple_set.pname) == tuple_set.readings
