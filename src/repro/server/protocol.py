"""The PASS wire protocol: framing and (de)serialization.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Three frame shapes travel over a connection:

* **requests** (client -> server): ``{"id": N, "op": "...", "args": {...}}``,
* **responses** (server -> client): ``{"id": N, "ok": true, "result": ...}``
  or ``{"id": N, "ok": false, "error": {"code": ..., "message": ...}}``,
* **pushes** (server -> client, no id): ``{"push": "event", "event": {...}}``
  for subscription deliveries and ``{"push": "goodbye", ...}`` when the
  daemon shuts down with the connection still open.

Everything the :class:`~repro.api.client.PassClient` surface passes --
tuple sets, queries (the full predicate algebra), window specs, results,
explain trees, subscription events -- has a ``*_to_wire`` /
``*_from_wire`` pair here, and every :mod:`repro.errors` exception maps
to a stable code (:func:`repro.errors.error_code`) so the client
re-raises the same type the server caught.  Attribute values ride the
same tagged-JSON convention the SQLite backend persists
(:func:`repro.core.provenance.value_to_json`), so a value round-trips
identically through either path.

Monitoring ops (``metrics``, ``metrics_export``, ``health``,
``alerts``, ``timeseries``) return plain JSON objects and need no
codec here; adding ops is wire-compatible, so they ride under the same
``WIRE_VERSION``.
"""

from __future__ import annotations

import json
import struct
from typing import IO, Optional

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import (
    PName,
    ProvenanceRecord,
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
    Predicate,
    Query,
    TimeWindowOverlaps,
)
from repro.core.tupleset import TupleSet, readings_from_json, readings_to_json
from repro.errors import ProtocolError, error_code
from repro.query.explain import Explain
from repro.stream.subscription import LineageEvent, MatchEvent, WindowEvent
from repro.stream.windows import WindowSpec

from repro.api.results import Cost, Result

__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "encode_frame",
    "read_frame",
    "error_to_wire",
    "predicate_to_wire",
    "predicate_from_wire",
    "query_to_wire",
    "query_from_wire",
    "window_to_wire",
    "window_from_wire",
    "tuple_set_to_wire",
    "tuple_set_from_wire",
    "record_to_wire",
    "record_from_wire",
    "result_to_wire",
    "result_from_wire",
    "explain_to_wire",
    "explain_from_wire",
    "event_to_wire",
    "event_from_wire",
]

#: bumped on any incompatible change to frames, ops or error codes
WIRE_VERSION = 1

#: refuse absurd frames instead of attempting a multi-GiB allocation
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
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
# Predicates and queries
# ----------------------------------------------------------------------
def predicate_to_wire(predicate: Predicate) -> dict:
    """Serialize any predicate of the core algebra."""
    if predicate is TRUE or type(predicate).__name__ == "_AlwaysTrue":
        return {"kind": "true"}
    if isinstance(predicate, AttributeEquals):
        return {"kind": "eq", "name": predicate.name, "value": value_to_json(predicate.value)}
    if isinstance(predicate, AttributeRange):
        return {
            "kind": "range",
            "name": predicate.name,
            "low": None if predicate.low is None else value_to_json(predicate.low),
            "high": None if predicate.high is None else value_to_json(predicate.high),
            "include_low": predicate.include_low,
            "include_high": predicate.include_high,
        }
    if isinstance(predicate, AttributeContains):
        return {"kind": "contains", "name": predicate.name, "needle": predicate.needle}
    if isinstance(predicate, AttributeIn):
        return {
            "kind": "in",
            "name": predicate.name,
            "values": [value_to_json(value) for value in predicate.values],
        }
    if isinstance(predicate, AttributeExists):
        return {"kind": "exists", "name": predicate.name}
    if isinstance(predicate, NearLocation):
        return {
            "kind": "near",
            "name": predicate.name,
            "lat": predicate.centre.latitude,
            "lon": predicate.centre.longitude,
            "radius_km": predicate.radius_km,
        }
    if isinstance(predicate, TimeWindowOverlaps):
        return {
            "kind": "overlaps",
            "start": predicate.start.seconds,
            "end": predicate.end.seconds,
            "start_attr": predicate.start_attr,
            "end_attr": predicate.end_attr,
        }
    if isinstance(predicate, AgentIs):
        return {
            "kind": "agent",
            "name": predicate.name,
            "agent_kind": predicate.kind,
            "version": predicate.version,
        }
    if isinstance(predicate, AnnotationMatches):
        return {
            "kind": "annotation",
            "key": predicate.key,
            "value": None if predicate.value is None else value_to_json(predicate.value),
        }
    if isinstance(predicate, IsRaw):
        return {"kind": "is_raw", "raw": predicate.raw}
    if isinstance(predicate, And):
        return {"kind": "and", "parts": [predicate_to_wire(part) for part in predicate.parts]}
    if isinstance(predicate, Or):
        return {"kind": "or", "parts": [predicate_to_wire(part) for part in predicate.parts]}
    if isinstance(predicate, Not):
        return {"kind": "not", "part": predicate_to_wire(predicate.part)}
    if isinstance(predicate, DerivedFrom):
        return {
            "kind": "derived_from",
            "ancestor": predicate.ancestor.digest,
            "include_self": predicate.include_self,
        }
    if isinstance(predicate, AncestorOf):
        return {
            "kind": "ancestor_of",
            "descendant": predicate.descendant.digest,
            "include_self": predicate.include_self,
        }
    raise ProtocolError(f"predicate {type(predicate).__name__} has no wire form")


def predicate_from_wire(payload) -> Predicate:
    """Inverse of :func:`predicate_to_wire`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"predicate payload must be an object, got {payload!r}")
    kind = payload.get("kind")
    try:
        if kind == "true":
            return TRUE
        if kind == "eq":
            return AttributeEquals(payload["name"], value_from_json(payload["value"]))
        if kind == "range":
            return AttributeRange(
                payload["name"],
                low=None if payload["low"] is None else value_from_json(payload["low"]),
                high=None if payload["high"] is None else value_from_json(payload["high"]),
                include_low=payload["include_low"],
                include_high=payload["include_high"],
            )
        if kind == "contains":
            return AttributeContains(payload["name"], payload["needle"])
        if kind == "in":
            return AttributeIn(
                payload["name"], tuple(value_from_json(value) for value in payload["values"])
            )
        if kind == "exists":
            return AttributeExists(payload["name"])
        if kind == "near":
            return NearLocation(
                payload["name"],
                GeoPoint(payload["lat"], payload["lon"]),
                payload["radius_km"],
            )
        if kind == "overlaps":
            return TimeWindowOverlaps(
                Timestamp(payload["start"]),
                Timestamp(payload["end"]),
                start_attr=payload["start_attr"],
                end_attr=payload["end_attr"],
            )
        if kind == "agent":
            return AgentIs(payload["name"], payload["agent_kind"], payload["version"])
        if kind == "annotation":
            value = payload["value"]
            return AnnotationMatches(
                payload["key"], None if value is None else value_from_json(value)
            )
        if kind == "is_raw":
            return IsRaw(payload["raw"])
        if kind == "and":
            return And(tuple(predicate_from_wire(part) for part in payload["parts"]))
        if kind == "or":
            return Or(tuple(predicate_from_wire(part) for part in payload["parts"]))
        if kind == "not":
            return Not(predicate_from_wire(payload["part"]))
        if kind == "derived_from":
            return DerivedFrom(pname_from_wire(payload["ancestor"]), payload["include_self"])
        if kind == "ancestor_of":
            return AncestorOf(pname_from_wire(payload["descendant"]), payload["include_self"])
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"malformed {kind!r} predicate: {error}") from None
    raise ProtocolError(f"unknown predicate kind {kind!r}")


def query_to_wire(query: Query) -> dict:
    return {
        "predicate": predicate_to_wire(query.predicate),
        "limit": query.limit,
        "include_removed": query.include_removed,
        "order_by": query.order_by,
    }


def query_from_wire(payload) -> Query:
    if not isinstance(payload, dict):
        raise ProtocolError(f"query payload must be an object, got {payload!r}")
    try:
        return Query(
            predicate=predicate_from_wire(payload["predicate"]),
            limit=payload.get("limit"),
            include_removed=payload.get("include_removed", True),
            order_by=payload.get("order_by"),
        )
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"malformed query: {error}") from None


# ----------------------------------------------------------------------
# Window specs
# ----------------------------------------------------------------------
def window_to_wire(window: Optional[WindowSpec]) -> Optional[dict]:
    if window is None:
        return None
    return {
        "size_seconds": window.size_seconds,
        "slide_seconds": window.slide_seconds,
        "aggregate": window.aggregate,
        "value_attr": window.value_attr,
        "group_by": window.group_by,
        "time_attr": window.time_attr,
    }


def window_from_wire(payload) -> Optional[WindowSpec]:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"window payload must be an object, got {payload!r}")
    try:
        return WindowSpec(
            size_seconds=payload["size_seconds"],
            slide_seconds=payload.get("slide_seconds"),
            aggregate=payload.get("aggregate", "count"),
            value_attr=payload.get("value_attr"),
            group_by=payload.get("group_by"),
            time_attr=payload.get("time_attr", "window_start"),
        )
    except ProtocolError:
        raise
    except KeyError as error:
        raise ProtocolError(f"malformed window spec: missing {error}") from None
    # ConfigurationError from WindowSpec validation propagates typed: the
    # server maps it onto its stable code for the client to re-raise.


# ----------------------------------------------------------------------
# Records and tuple sets
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
    if not isinstance(payload, dict):
        raise ProtocolError(f"tuple set payload must be an object, got {payload!r}")
    record = record_from_wire(payload.get("provenance"))
    try:
        readings = readings_from_json(payload.get("readings", []))
    except Exception as error:
        raise ProtocolError(f"malformed readings payload: {error}") from None
    return TupleSet(readings, record)


# ----------------------------------------------------------------------
# Results, cost, explain
# ----------------------------------------------------------------------
def result_to_wire(result: Result) -> dict:
    return {
        "records": [pname.digest for pname in result.records],
        "cost": {
            "latency_ms": result.cost.latency_ms,
            "messages": result.cost.messages,
            "bytes": result.cost.bytes,
            "rows_scanned": result.cost.rows_scanned,
            "sites": list(result.cost.sites),
        },
        "notes": list(result.notes),
        "total": result.total,
        "offset": result.offset,
    }


def result_from_wire(payload) -> Result:
    if not isinstance(payload, dict):
        raise ProtocolError(f"result payload must be an object, got {payload!r}")
    try:
        cost_payload = payload.get("cost", {})
        return Result(
            records=[pname_from_wire(digest) for digest in payload.get("records", [])],
            cost=Cost(
                latency_ms=cost_payload.get("latency_ms", 0.0),
                messages=cost_payload.get("messages", 0),
                bytes=cost_payload.get("bytes", 0),
                rows_scanned=cost_payload.get("rows_scanned", 0),
                sites=list(cost_payload.get("sites", [])),
            ),
            notes=list(payload.get("notes", [])),
            total=payload.get("total"),
            offset=payload.get("offset", 0),
        )
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"malformed result payload: {error}") from None


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
# Subscription events (the push feed)
# ----------------------------------------------------------------------
def event_to_wire(event) -> dict:
    if isinstance(event, MatchEvent):
        return {
            "type": "match",
            "sub": event.subscription_id,
            "pname": event.pname.digest,
            "record": record_to_wire(event.record),
        }
    if isinstance(event, WindowEvent):
        return {
            "type": "window",
            "sub": event.subscription_id,
            "window_start": event.window_start,
            "window_end": event.window_end,
            "group": None if event.group is None else value_to_json(event.group),
            "aggregate": event.aggregate,
            "value": event.value,
            "count": event.count,
        }
    if isinstance(event, LineageEvent):
        return {
            "type": "lineage",
            "sub": event.subscription_id,
            "watched": event.watched.digest,
            "pname": event.pname.digest,
            "record": record_to_wire(event.record),
        }
    raise ProtocolError(f"event {type(event).__name__} has no wire form")


def event_from_wire(payload):
    if not isinstance(payload, dict):
        raise ProtocolError(f"event payload must be an object, got {payload!r}")
    kind = payload.get("type")
    try:
        if kind == "match":
            return MatchEvent(
                subscription_id=payload["sub"],
                pname=pname_from_wire(payload["pname"]),
                record=record_from_wire(payload["record"]),
            )
        if kind == "window":
            group = payload["group"]
            return WindowEvent(
                subscription_id=payload["sub"],
                window_start=payload["window_start"],
                window_end=payload["window_end"],
                group=None if group is None else value_from_json(group),
                aggregate=payload["aggregate"],
                value=payload["value"],
                count=payload["count"],
            )
        if kind == "lineage":
            return LineageEvent(
                subscription_id=payload["sub"],
                watched=pname_from_wire(payload["watched"]),
                pname=pname_from_wire(payload["pname"]),
                record=record_from_wire(payload["record"]),
            )
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(f"malformed {kind!r} event: {error}") from None
    raise ProtocolError(f"unknown event type {kind!r}")
