"""The wire op table: every operation of the service path, declared once.

One :class:`Op` row names an op, its ordered argument fields, its result
codec and who serves it; a field name means the same thing in every op,
so :data:`FIELD_CODECS` gives each its :class:`Codec` once.  The
``RemoteClient`` stubs (:meth:`Op.encode_args`), the daemon's dispatch
and argument checks (:meth:`Op.decode_args`, :attr:`Op.served_by`), the
façade's observed-op list and the ``docs/SERVER.md`` table
(:func:`operations_table`) all read the rows; ``docs/SERVER.md``
§ "Adding an op" is the recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.api.dsl import as_query, coerce_pname
from repro.errors import PassError, ProtocolError
from repro.server import protocol

__all__ = ["Codec", "Field", "Op", "OPS", "OBSERVED_OPS", "operations_table"]


def _same(value):
    return value


@dataclass(frozen=True)
class Codec:
    """How one kind of value crosses the wire.

    ``to_wire`` runs on the sending side and ``from_wire`` on the
    receiving side (client then daemon for an argument, the reverse for
    a result).  ``json_type`` is what the decoded JSON value must be;
    the dispatcher checks it before ``from_wire`` sees an argument.
    """

    json_type: Optional[type]
    to_wire: Callable = _same
    from_wire: Callable = _same


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


TEXT = Codec(str)
INTEGER = Codec(int)
PNAME = Codec(str, lambda pname: coerce_pname(pname).digest, protocol.pname_from_wire)
QUERY = Codec(dict, lambda query: protocol.query_to_wire(as_query(query)), protocol.query_from_wire)
WINDOW = Codec(dict, protocol.window_to_wire, protocol.window_from_wire)
TUPLE_SET = Codec(dict, protocol.tuple_set_to_wire, protocol.tuple_set_from_wire)
TUPLE_SETS = Codec(
    list,
    lambda tuple_sets: [protocol.tuple_set_to_wire(item) for item in tuple_sets],
    lambda payloads: [protocol.tuple_set_from_wire(item) for item in payloads],
)
RESULT = Codec(dict, protocol.result_to_wire, protocol.result_from_wire)
EXPLAIN = Codec(dict, protocol.explain_to_wire, protocol.explain_from_wire)
RECORD = Codec(dict, _optional(protocol.record_to_wire), _optional(protocol.record_from_wire))
JSON = Codec(None)  # plain JSON the daemon composes; no typed form on either side
FLAG = Codec(bool, from_wire=bool)
COUNT = Codec(int, from_wire=int)

#: every argument name on the wire and the codec that carries it
FIELD_CODECS = {
    "token": TEXT,
    "tenant": TEXT,
    "origin": TEXT,
    "name": TEXT,
    "sub": TEXT,
    "task_id": TEXT,
    "limit": INTEGER,
    "offset": INTEGER,
    "pname": PNAME,
    "query": QUERY,
    "window": WINDOW,
    "tuple_set": TUPLE_SET,
    "tuple_sets": TUPLE_SETS,
}


class Field(NamedTuple):
    """One named argument of an op."""

    name: str
    codec: Codec
    required: bool


#: served by the same-named façade method of the tenant's client
FORWARD = "forward"
#: served by ``PassDaemon._handle_<op>``: needs the connection or job table
CONNECTION = "connection"
#: served by the same-named :class:`~repro.server.monitor.Monitor` method
MONITOR = "monitor"


@dataclass
class Op:
    """One wire operation."""

    name: str
    #: the fields in envelope order, ``name?`` marking an optional one
    arguments: str
    result: Codec
    #: what the result is, in the words of the docs table
    returns: str
    served_by: str = FORWARD
    #: whether the façade wraps it with a span + op metrics on every target
    observed: bool = False

    def __post_init__(self) -> None:
        self.fields: Tuple[Field, ...] = tuple(
            Field(word.rstrip("?"), FIELD_CODECS[word.rstrip("?")], not word.endswith("?"))
            for word in self.arguments.split()
        )
        self._names = frozenset(field.name for field in self.fields)

    def encode_args(self, values: Dict[str, object]) -> Dict[str, object]:
        """Client side: keyword values -> wire arguments, in declared order.

        ``None`` means "not given" and is left off the envelope.
        """
        return {
            field.name: field.codec.to_wire(values[field.name])
            for field in self.fields
            if values.get(field.name) is not None
        }

    def decode_args(self, args: Dict[str, object]) -> Dict[str, object]:
        """Daemon side: check a request's ``args`` and decode what is present.

        An explicit ``null`` reads as "not given", like an absent field.
        """
        for name in args:
            if name not in self._names:
                raise ProtocolError(f"{self.name}: unknown field {name!r}")
        values = {}
        for field in self.fields:
            raw = args.get(field.name)
            if raw is None:
                if field.required:
                    raise ProtocolError(f"{self.name}: missing required field {field.name!r}")
                continue
            if type(raw) is not field.codec.json_type:
                raise ProtocolError(
                    f"{self.name}: field {field.name!r} must be a JSON "
                    f"{protocol.JSON_NAMES[field.codec.json_type]}, got {protocol.JSON_NAMES[type(raw)]}"
                )
            try:
                values[field.name] = field.codec.from_wire(raw)
            except PassError:
                raise
            except Exception:
                # A nested value of a shape the codec did not anticipate;
                # never let interpreter text onto the wire.
                raise ProtocolError(f"{self.name}: field {field.name!r} is malformed") from None
        return values


_ROWS = (
    Op("hello", "token? tenant?", JSON, "`{wire_version, tenant, target}`", CONNECTION),
    Op("ping", "", JSON, "`{wire_version}`", CONNECTION),
    Op("publish", "tuple_set origin?", RESULT, "result envelope", observed=True),
    Op("publish_many", "tuple_sets origin?", RESULT, "result envelope", observed=True),
    Op("query", "query? limit? offset? origin?", RESULT, "result envelope", observed=True),
    Op("explain", "query? origin?", EXPLAIN, "explain tree", observed=True),
    Op("ancestors", "pname origin? limit? offset?", RESULT, "result envelope", observed=True),
    Op("descendants", "pname origin? limit? offset?", RESULT, "result envelope", observed=True),
    Op("locate", "pname origin?", RESULT, "result envelope (holding sites in `cost.sites`)", observed=True),
    Op("describe_record", "pname", RECORD, "record or null"),
    Op("stats", "", JSON, "stats dict", CONNECTION),
    Op("metrics", "", JSON, "`{uptime_s, tenants, slow_queries}`", MONITOR),
    Op("metrics_export", "", JSON, "`{content_type, text}` (OpenMetrics)", MONITOR),
    Op("health", "", JSON, "`{status, checks}`", MONITOR),
    Op("alerts", "", JSON, "`{enabled, rules?, firing?, transitions?}`", MONITOR),
    Op("timeseries", "", JSON, "`{enabled, interval_s?, series?}`", MONITOR),
    Op("refresh", "", JSON, "null"),
    Op("supports_lineage", "", FLAG, "bool"),
    Op("subscribe", "query? window? origin? name?", JSON, "subscription stats", CONNECTION),
    Op("subscribe_descendants", "pname origin? name?", JSON, "subscription stats", CONNECTION),
    Op("unsubscribe", "sub", FLAG, "bool", CONNECTION),
    Op("subscriptions", "", JSON, "list of subscription stats", CONNECTION),
    Op("flush_windows", "", COUNT, "windows closed (events already pushed)"),
    Op("rebuild_index", "", JSON, '`{task_id, status: "pending"}`', CONNECTION),
    Op("task_status", "task_id", JSON, "`{task_id, status, stats?/error?}`", CONNECTION),
)
OPS: Dict[str, Op] = {op.name: op for op in _ROWS}

#: the ops every concrete client's overrides are observed on
OBSERVED_OPS = tuple(op.name for op in _ROWS if op.observed)


def operations_table() -> str:
    """The "Operations" table of ``docs/SERVER.md``, one row per op."""
    lines = ["| Op | Args | Result |", "| --- | --- | --- |"]
    for op in _ROWS:
        arguments = ", ".join(
            f"`{field.name}`" if field.required else f"`{field.name}?`" for field in op.fields
        )
        lines.append(f"| `{op.name}` | {arguments or '—'} | {op.returns} |")
    return "\n".join(lines)
