"""The PASS wire protocol: framing and (de)serialization.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Three frame shapes travel over a connection:

* **requests** (client -> server): ``{"id": N, "op": "...", "args": {...}}``,
* **responses** (server -> client): ``{"id": N, "ok": true, "result": ...}``
  or ``{"id": N, "ok": false, "error": {"code": ..., "message": ...}}``,
* **pushes** (server -> client, no id): ``{"push": "event", "event": {...}}``
  for subscription deliveries and ``{"push": "goodbye", ...}`` when the
  daemon shuts down with the connection still open.

Every dataclass the :class:`~repro.api.client.PassClient` surface passes
-- the sixteen predicates, queries, window specs, results and their
cost, subscription events -- is declared *once*, as one
:class:`WireType` row: a tag, then the fields in envelope order, each
``key[=attribute][:codec]``.  One engine derives both directions:

* encoding picks the row by class, falling back along the MRO (a
  subclass keeps its parent's form); decoding picks it by the tag;
* a field whose attribute has a dataclass default may be absent and
  takes that default; every other field is required;
* a field's JSON type comes from the dataclass annotation (``str``,
  ``bool``, ``int`` -- which no ``bool`` is --, ``float`` -- which an
  ``int`` is --, ``List[str]``, ``Optional[...]``) or from its codec; a
  mismatch is a :class:`ProtocolError` naming the type and the field.
  A value the dataclass refuses raises its own typed error, as in-process.

Records, tuple sets and explain trees keep the forms their own classes
define.  Every :mod:`repro.errors` exception maps to a stable code
(:func:`repro.errors.error_code`) so the client re-raises the type the
server caught.  Attribute values ride the tagged JSON the SQLite backend
persists (:func:`repro.core.provenance.value_to_json`).

Monitoring ops (``metrics``, ``metrics_export``, ``health``,
``alerts``, ``timeseries``) return plain JSON objects and need no
codec here; adding ops is wire-compatible, so they ride under the same
``WIRE_VERSION``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, fields
from operator import attrgetter
from typing import IO, Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from repro.core.attributes import Timestamp
from repro.core.provenance import (
    JSON_NAMES,
    PName,
    ProvenanceRecord,
    json_name,
    value_from_json,
    value_to_json,
)
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
from repro.core.tupleset import TupleSet, readings_payload_from_json, readings_to_json
from repro.errors import PassError, ProtocolError, error_code
from repro.query.explain import Explain
from repro.stream.subscription import LineageEvent, MatchEvent, WindowEvent
from repro.stream.windows import WindowSpec

from repro.api.results import Cost, Result

__all__ = [
    "MAX_FRAME_BYTES", "WIRE_VERSION", "JSON_NAMES", "WIRE_TYPES", "WireType",
    "encode_frame", "read_frame", "error_to_wire",
    "predicate_to_wire", "predicate_from_wire", "query_to_wire", "query_from_wire",
    "window_to_wire", "window_from_wire", "tuple_set_to_wire", "tuple_set_from_wire",
    "record_to_wire", "record_from_wire", "result_to_wire", "result_from_wire",
    "explain_to_wire", "explain_from_wire", "event_to_wire", "event_from_wire",
]

#: bumped on any incompatible change to frames, ops or error codes
WIRE_VERSION = 1

#: refuse absurd frames instead of attempting a multi-GiB allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")
#: ``json.dumps(payload, separators=(",", ":"))``, built once rather than per frame
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = _compact_json(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _LENGTH.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Parse a frame body; anything but a JSON object is a protocol error."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


def frame_length(header: bytes) -> int:
    """Decode the 4-byte length prefix, enforcing the frame cap."""
    if len(header) != _LENGTH.size:
        raise ProtocolError("truncated frame header")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return length


def read_frame(stream: IO[bytes]) -> Optional[dict]:
    """Read one frame from a blocking byte stream; None on clean EOF.

    EOF in the *middle* of a frame is a :class:`ProtocolError` -- the
    peer vanished mid-sentence, which a caller should not mistake for a
    graceful close.
    """
    header = _read_exact(stream, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    body = _read_exact(stream, frame_length(header), allow_eof=False)
    return decode_body(body)


def _read_exact(stream: IO[bytes], count: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def error_to_wire(error: BaseException) -> dict:
    """The stable error envelope: code (typed) + human message."""
    return {"code": error_code(error), "message": str(error)}


# ----------------------------------------------------------------------
# PNames
# ----------------------------------------------------------------------
def pname_from_wire(digest) -> PName:
    if not isinstance(digest, str):
        raise ProtocolError(f"pname must be a digest string, got {digest!r}")
    try:
        return PName(digest)
    except Exception:
        raise ProtocolError(f"malformed pname digest {digest!r}") from None


# ----------------------------------------------------------------------
# Records, tuple sets and explain trees: forms their own classes define
# ----------------------------------------------------------------------
def record_to_wire(record: ProvenanceRecord) -> dict:
    return record.to_dict()


def record_from_wire(payload) -> ProvenanceRecord:
    if not isinstance(payload, dict):
        raise ProtocolError(f"record payload must be an object, got {payload!r}")
    try:
        return ProvenanceRecord.from_dict(payload)
    except Exception as error:
        raise ProtocolError(f"malformed provenance record: {error}") from None


def tuple_set_to_wire(tuple_set: TupleSet) -> dict:
    return {
        "provenance": record_to_wire(tuple_set.provenance),
        "readings": readings_to_json(tuple_set),
    }


def tuple_set_from_wire(payload) -> TupleSet:
    """The readings are checked and written as their stored payload, never decoded."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"tuple set payload must be an object, got {payload!r}")
    record = record_from_wire(payload.get("provenance"))
    try:
        stored = readings_payload_from_json(payload.get("readings", []))
    except PassError as error:
        raise ProtocolError(f"malformed readings payload: {error}") from None
    return TupleSet.from_payload(stored, record)


def explain_to_wire(explain: Explain) -> dict:
    return explain.to_dict()


def explain_from_wire(payload) -> Explain:
    if not isinstance(payload, dict):
        raise ProtocolError(f"explain payload must be an object, got {payload!r}")
    try:
        return Explain.from_dict(payload)
    except Exception as error:
        raise ProtocolError(f"malformed explain payload: {error}") from None


# ----------------------------------------------------------------------
# The engine: one row per wire type, both directions derived from it
# ----------------------------------------------------------------------
def _is_optional(hint) -> bool:
    return get_origin(hint) is Union and type(None) in get_args(hint)


def _json_types(hint):
    """``(types, items, words)`` of annotation ``hint``: the JSON types a value
    may have, the types of its items if it is an array, and their name.

    ``object`` (and any union but ``Optional[X]``) admits every value, so
    its ``types`` is ``None``; a hint with no JSON form fails at import.
    """
    if _is_optional(hint):
        inner = [arg for arg in get_args(hint) if arg is not type(None)]
        types, items, words = _json_types(inner[0] if len(inner) == 1 else object)
        return (None, None, words) if types is None else (types | {type(None)}, items, f"{words} or null")
    if hint is object or get_origin(hint) is Union:
        return None, None, "value"
    if get_origin(hint) is list:
        items, _, words = _json_types(*get_args(hint))
        return frozenset({list}), items, f"array of {words}s"
    if hint is float:
        return frozenset({float, int}), None, "number"
    if hint in JSON_NAMES:  # exactly that JSON type: true is no integer here
        return frozenset({hint}), None, JSON_NAMES[hint]
    raise TypeError(f"no JSON form for {hint!r}")


class _Codec(NamedTuple):
    """A field value that is not its own JSON: the JSON shape it rides as, both ways."""

    hint: object
    to_wire: Callable
    from_wire: Callable


#: the codecs a field may name after ``:`` (the nested ones look their rows up at call time)
_CODECS = {
    "value": _Codec(object, value_to_json, value_from_json),
    "values": _Codec(
        list, lambda values: list(map(value_to_json, values)), lambda items: tuple(map(value_from_json, items))
    ),
    "pname": _Codec(str, attrgetter("digest"), pname_from_wire),
    "pnames": _Codec(
        list, lambda pnames: [pname.digest for pname in pnames], lambda digests: list(map(pname_from_wire, digests))
    ),
    "time": _Codec(get_type_hints(Timestamp)["seconds"], attrgetter("seconds"), Timestamp),
    "record": _Codec(dict, record_to_wire, record_from_wire),
    "predicate": _Codec(dict, lambda part: _PREDICATES.encode(part), lambda item: _PREDICATES.decode(item)),
    "parts": _Codec(
        list, lambda parts: list(map(_PREDICATES.encode, parts)), lambda items: tuple(map(_PREDICATES.decode, items))
    ),
    "cost": _Codec(dict, lambda cost: _COST.encode(cost), lambda item: _COST.decode(item)),
}


class _Field(NamedTuple):
    key: str
    #: the constructor keyword; ``centre.latitude`` names a field of a nested dataclass
    attribute: str
    get: Callable
    to_wire: Optional[Callable]
    from_wire: Optional[Callable]
    #: the JSON types the value may have (None: any) and, for an array, its items'
    types: Optional[frozenset]
    items: Optional[frozenset]
    words: str
    required: bool

    def admits(self, value) -> bool:
        """Whether a decoded JSON value has this field's type."""
        if self.types is None:
            return True
        if type(value) not in self.types:
            return False
        return self.items is None or value is None or self.items.issuperset(map(type, value))


class WireType:
    """One dataclass's wire form: a tag (or none) and its fields in envelope order.

    ``spec`` lists the fields as ``key[=attribute][:codec]`` words; the
    attribute defaults to the key, a field without a codec rides as its
    own JSON.  Getters, defaults and JSON types are resolved here, once.
    """

    def __init__(self, cls, label: str, spec: str, head: Optional[dict] = None, make=None):
        self.cls = cls
        self.label = label
        self.head = head or {}
        self.make = make or cls
        hints = get_type_hints(cls)
        defaulted = {
            item.name for item in fields(cls) if item.default is not MISSING or item.default_factory is not MISSING
        }
        self.fields = tuple(self._field(word, hints, defaulted) for word in spec.split())
        self._encoders = tuple((field.key, field.get, field.to_wire) for field in self.fields)
        self._decoders = tuple(
            (field.key, field.attribute, field.from_wire, field.types, field.items, field.required, field)
            for field in self.fields
        )
        # a dotted attribute is decoded under its own name, then gathered into its dataclass
        self._nested: dict = {}
        for field in self.fields:
            outer, _, member = field.attribute.partition(".")
            if member:
                self._nested.setdefault(outer, (hints[outer], []))[1].append(member)

    @staticmethod
    def _field(word: str, hints: dict, defaulted: set) -> _Field:
        key, _, codec_name = word.partition(":")
        key, _, attribute = key.partition("=")
        attribute = attribute or key
        head, _, member = attribute.partition(".")
        annotation = get_type_hints(hints[head])[member] if member else hints[head]
        codec = _CODECS[codec_name] if codec_name else None
        hint = annotation if codec is None else codec.hint
        if codec is not None and _is_optional(annotation):
            hint = Optional[hint]
        types, items, words = _json_types(hint)
        required = bool(member) or head not in defaulted
        to_wire, from_wire = (None, None) if codec is None else codec[1:]
        return _Field(key, attribute, attrgetter(attribute), to_wire, from_wire, types, items, words, required)

    def encode(self, obj) -> dict:
        wire = self.head.copy()
        for key, get, to_wire in self._encoders:
            value = get(obj)
            wire[key] = value if value is None or to_wire is None else to_wire(value)
        return wire

    def decode(self, payload):
        if type(payload) is not dict:
            raise ProtocolError(f"{self.label} payload must be an object, got {payload!r}")
        values = {}
        try:
            for key, name, from_wire, types, items, required, field in self._decoders:
                try:
                    raw = payload[key]
                except KeyError:
                    if required:
                        raise ProtocolError(f"{self.label}: missing required field {key!r}") from None
                    continue
                if types is not None and (type(raw) not in types or items is not None and not field.admits(raw)):
                    raise ProtocolError(
                        f"{self.label}: field {key!r} must be a JSON {field.words}, "
                        f"got {json_name(raw)}"
                    )
                values[name] = raw if raw is None or from_wire is None else from_wire(raw)
            for outer, (nested, members) in self._nested.items():
                values[outer] = nested(**{member: values.pop(f"{outer}.{member}") for member in members})
            return self.make(**values)
        except PassError:
            raise
        except Exception as error:
            raise ProtocolError(f"malformed {self.label}: {error}") from None


class _Tagged:
    """Rows told apart by one tag key: predicates by ``kind``, events by ``type``."""

    def __init__(self, noun: str, key: str, rows) -> None:
        self.noun, self.key = noun, key
        self.rows = tuple(
            WireType(cls, f"{tag!r} {noun}", spec, {key: tag}, *make) for tag, cls, spec, *make in rows
        )
        self._by_class = {row.cls: row for row in self.rows}
        self._by_tag = {row.head[key]: row for row in self.rows}

    def encode(self, obj) -> dict:
        for cls in type(obj).__mro__:
            row = self._by_class.get(cls)
            if row is not None:
                return row.encode(obj)
        raise ProtocolError(f"{self.noun} {type(obj).__name__} has no wire form")

    def decode(self, payload):
        if type(payload) is not dict:
            raise ProtocolError(f"{self.noun} payload must be an object, got {payload!r}")
        tag = payload.get(self.key)
        row = self._by_tag.get(tag) if type(tag) is str else None
        if row is None:
            raise ProtocolError(f"unknown {self.noun} {self.key} {tag!r}")
        return row.decode(payload)


# ----------------------------------------------------------------------
# The declarations
# ----------------------------------------------------------------------
_PREDICATES = _Tagged("predicate", "kind", (
    ("true", type(TRUE), "", lambda: TRUE),
    ("eq", AttributeEquals, "name value:value"),
    ("range", AttributeRange, "name low:value high:value include_low include_high"),
    ("contains", AttributeContains, "name needle"),
    ("in", AttributeIn, "name values:values"),
    ("exists", AttributeExists, "name"),
    ("near", NearLocation, "name lat=centre.latitude lon=centre.longitude radius_km"),
    ("overlaps", TimeWindowOverlaps, "start:time end:time start_attr end_attr"),
    ("agent", AgentIs, "name agent_kind=kind version"),
    ("annotation", AnnotationMatches, "key value:value"),
    ("is_raw", IsRaw, "raw"),
    ("and", And, "parts:parts"),
    ("or", Or, "parts:parts"),
    ("not", Not, "part:predicate"),
    ("derived_from", DerivedFrom, "ancestor:pname include_self"),
    ("ancestor_of", AncestorOf, "descendant:pname include_self"),
))
_QUERY = WireType(Query, "query", "predicate:predicate limit include_removed order_by")
_WINDOW = WireType(WindowSpec, "window", "size_seconds slide_seconds aggregate value_attr group_by time_attr")
_COST = WireType(Cost, "cost", "latency_ms messages bytes rows_scanned sites")
_RESULT = WireType(Result, "result", "records:pnames cost:cost notes total offset")
_EVENTS = _Tagged("event", "type", (
    ("match", MatchEvent, "sub=subscription_id pname:pname record:record"),
    ("window", WindowEvent, "sub=subscription_id window_start window_end group:value aggregate value count"),
    ("lineage", LineageEvent, "sub=subscription_id watched:pname pname:pname record:record"),
))

#: every declared row, for the tests that hold the declaration complete
WIRE_TYPES = (*_PREDICATES.rows, _QUERY, _WINDOW, _COST, _RESULT, *_EVENTS.rows)

predicate_to_wire = _PREDICATES.encode
predicate_from_wire = _PREDICATES.decode
query_to_wire = _QUERY.encode
query_from_wire = _QUERY.decode
result_to_wire = _RESULT.encode
result_from_wire = _RESULT.decode
event_to_wire = _EVENTS.encode
event_from_wire = _EVENTS.decode


def window_to_wire(window: Optional[WindowSpec]) -> Optional[dict]:
    return None if window is None else _WINDOW.encode(window)


def window_from_wire(payload) -> Optional[WindowSpec]:
    return None if payload is None else _WINDOW.decode(payload)
