"""Provenance records: the first-class name of a sensor data set.

Section II-A of the paper argues that the provenance of a collection of
data "is the single, unique identifier for that data set ... in a very
real sense, this makes the provenance the name of the data set".  This
module implements that idea:

* :class:`ProvenanceRecord` is a structured description of how a tuple
  set came to be -- descriptive name-value pairs, the identities of the
  ancestor data sets it was derived from, and the *agents* (programs,
  sensors, people) that produced it.
* :class:`PName` is the canonical digest of a provenance record.  It is
  the identity used everywhere else in the library: by the PASS store,
  the indexes and the distributed architecture models.
* :class:`Annotation` captures after-the-fact notes ("sensor 12 was
  replaced with a newer model on this date") without changing the
  identity of the data they describe.

Two design points worth calling out:

* PNames are *content* digests of provenance, not random UUIDs.  This is
  what lets the library enforce PASS property P3 (non-identical data
  items do not have identical provenance): if two supposedly different
  tuple sets hash to the same PName, their provenance is literally
  identical and the store rejects the second one.
* Ancestor links are part of the record (and of the digest), so the
  derivation DAG is reconstructible from the records alone -- provenance
  is not lost when ancestor objects are removed (PASS property P4),
  because the child record carries the ancestor's PName forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.attributes import (
    AttributeValue,
    GeoPoint,
    Timestamp,
    canonical_encode,
    ensure_attribute_map,
)
from repro.errors import ProvenanceError

__all__ = [
    "PName",
    "Agent",
    "Annotation",
    "ProvenanceRecord",
    "value_to_json",
    "value_from_json",
    "canonical_json",
    "plain_json_text",
    "value_json_text",
]


@dataclass(frozen=True, order=True)
class PName:
    """The provenance-derived name (identity) of a tuple set.

    A PName is a hex digest of the canonical encoding of a provenance
    record.  It is stable across processes and machines, short enough to
    pass around the simulated network, and unique per distinct
    provenance (collisions aside, which SHA-256 makes negligible).
    """

    digest: str

    def __post_init__(self) -> None:
        if not self.digest or len(self.digest) != 64:
            raise ProvenanceError(f"malformed PName digest: {self.digest!r}")

    @property
    def short(self) -> str:
        """A human-friendly 12-character prefix, used in reports and logs."""
        return self.digest[:12]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"pname:{self.short}"


@dataclass(frozen=True)
class Agent:
    """A program, sensor, person or organisation that acted on the data.

    The paper's examples include postprocessing programs ("image
    sharpening"), EMTs, compilers and sensor hardware revisions.  Agents
    are part of provenance and therefore part of identity.
    """

    kind: str
    name: str
    version: str = ""
    metadata: Mapping[str, AttributeValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not self.name:
            raise ProvenanceError("agent kind and name must be non-empty")
        object.__setattr__(self, "metadata", dict(ensure_attribute_map(dict(self.metadata))))

    def canonical(self) -> str:
        """Canonical text form used inside provenance digests."""
        meta = ",".join(
            f"{key}={canonical_encode(value)}" for key, value in sorted(self.metadata.items())
        )
        return f"agent({self.kind}|{self.name}|{self.version}|{meta})"

    def describe(self) -> str:
        """Short human-readable description, e.g. ``program gcc 3.3.3``."""
        if self.version:
            return f"{self.kind} {self.name} {self.version}"
        return f"{self.kind} {self.name}"


@dataclass(frozen=True)
class Annotation:
    """An after-the-fact note attached to a data set.

    Annotations (e.g. "sensors replaced with newer models") are
    searchable but are *not* part of the identity digest: adding an
    annotation must not change which data set the provenance names.
    """

    key: str
    value: AttributeValue
    author: str = ""
    timestamp: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ProvenanceError("annotation key must be non-empty")


_ABSENT = object()


class ProvenanceRecord:
    """The full provenance of one tuple set.

    Parameters
    ----------
    attributes:
        Descriptive name-value pairs (sensor type, location, time window,
        owning organisation, processing parameters, ...).  Domain
        specific; the library imposes no schema.
    ancestors:
        PNames of the data sets this one was derived from.  Empty for raw
        sensor captures.
    agents:
        The agents that produced this data set (the sensor network, the
        postprocessing program, the EMT, ...).
    annotations:
        Optional after-the-fact notes; not part of identity.
    """

    __slots__ = ("_attributes", "_ancestors", "_agents", "_annotations", "_pname")

    def __init__(
        self,
        attributes: Mapping[str, AttributeValue],
        ancestors: Sequence[PName] = (),
        agents: Sequence[Agent] = (),
        annotations: Sequence[Annotation] = (),
    ) -> None:
        self._attributes = ensure_attribute_map(dict(attributes))
        if not self._attributes:
            raise ProvenanceError("a provenance record needs at least one attribute")
        ancestor_list = list(ancestors)
        for ancestor in ancestor_list:
            if not isinstance(ancestor, PName):
                raise ProvenanceError(f"ancestors must be PNames, got {ancestor!r}")
        # Preserve order but drop duplicates: deriving twice from the same
        # input is the same dependency.
        seen = set()
        unique_ancestors = []
        for ancestor in ancestor_list:
            if ancestor.digest not in seen:
                seen.add(ancestor.digest)
                unique_ancestors.append(ancestor)
        self._ancestors = tuple(unique_ancestors)
        self._agents = tuple(agents)
        for agent in self._agents:
            if not isinstance(agent, Agent):
                raise ProvenanceError(f"agents must be Agent instances, got {agent!r}")
        self._annotations = list(annotations)
        self._pname: Optional[PName] = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical text form of the identity-bearing parts of the record."""
        attr_part = ";".join(
            f"{name}={canonical_encode(value)}"
            for name, value in sorted(self._attributes.items())
        )
        ancestor_part = ",".join(ancestor.digest for ancestor in self._ancestors)
        agent_part = ",".join(agent.canonical() for agent in self._agents)
        return f"attrs[{attr_part}]|ancestors[{ancestor_part}]|agents[{agent_part}]"

    def pname(self) -> PName:
        """The PName (identity digest) of this record.  Cached."""
        if self._pname is None:
            digest = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()
            self._pname = PName(digest)
        return self._pname

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Mapping[str, AttributeValue]:
        """Read-only view of the descriptive attributes."""
        return dict(self._attributes)

    @property
    def ancestors(self) -> tuple:
        """PNames of the immediate ancestors (inputs to the derivation)."""
        return self._ancestors

    @property
    def agents(self) -> tuple:
        """Agents that produced this data set."""
        return self._agents

    @property
    def annotations(self) -> list:
        """Annotations attached so far (mutable history, not identity)."""
        return list(self._annotations)

    def get(self, name: str, default: Optional[AttributeValue] = None):
        """Return attribute ``name`` or ``default`` when absent.

        ``annotation:<key>`` names the latest annotation of that key, so
        annotations are queryable like attributes; a real attribute of
        that name wins, and identity (:meth:`canonical`) never sees it.
        """
        value = self._attributes.get(name, _ABSENT)
        if value is not _ABSENT:
            return value
        if name.startswith("annotation:"):
            key = name[len("annotation:"):]
            for annotation in reversed(self._annotations):
                if annotation.key == key:
                    return annotation.value
        return default

    def is_raw(self) -> bool:
        """True for raw captures (no ancestors): the leaves of the lineage DAG."""
        return not self._ancestors

    # ------------------------------------------------------------------
    # Mutation (annotations only)
    # ------------------------------------------------------------------
    def annotate(self, annotation: Annotation) -> None:
        """Attach an annotation.  Does not change the record's PName."""
        if not isinstance(annotation, Annotation):
            raise ProvenanceError(f"expected an Annotation, got {annotation!r}")
        self._annotations.append(annotation)

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def derive(
        self,
        attributes: Mapping[str, AttributeValue],
        agent: Optional[Agent] = None,
        extra_ancestors: Sequence[PName] = (),
    ) -> "ProvenanceRecord":
        """Build the provenance of a data set derived from this one.

        The paper (Section III-B): "The provenance of a derived data set
        is the provenance of the original data plus the provenance of the
        tools used to do the derivation."  Concretely the derived record
        points at this record's PName as an ancestor and lists the
        deriving agent.
        """
        agents = (agent,) if agent is not None else ()
        return ProvenanceRecord(
            attributes=attributes,
            ancestors=(self.pname(), *extra_ancestors),
            agents=agents,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation.

        The SQLite backend persists it (``ancestors`` here is the only
        stored copy of the lineage edges) and the wire protocol sends it.
        """
        return {
            "attributes": {
                name: _value_to_json(value) for name, value in self._attributes.items()
            },
            "ancestors": [ancestor.digest for ancestor in self._ancestors],
            "agents": [
                {
                    "kind": agent.kind,
                    "name": agent.name,
                    "version": agent.version,
                    "metadata": {
                        key: _value_to_json(val) for key, val in agent.metadata.items()
                    },
                }
                for agent in self._agents
            ],
            "annotations": [
                {
                    "key": ann.key,
                    "value": _value_to_json(ann.value),
                    "author": ann.author,
                    "timestamp": ann.timestamp,
                }
                for ann in self._annotations
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProvenanceRecord":
        """Inverse of :meth:`to_dict`."""
        attributes = {
            name: _value_from_json(value) for name, value in payload["attributes"].items()
        }
        ancestors = [PName(digest) for digest in payload.get("ancestors", [])]
        agents = [
            Agent(
                kind=item["kind"],
                name=item["name"],
                version=item.get("version", ""),
                metadata={
                    key: _value_from_json(val) for key, val in item.get("metadata", {}).items()
                },
            )
            for item in payload.get("agents", [])
        ]
        annotations = [
            Annotation(
                key=item["key"],
                value=_value_from_json(item["value"]),
                author=item.get("author", ""),
                timestamp=item.get("timestamp"),
            )
            for item in payload.get("annotations", [])
        ]
        return cls(attributes, ancestors, agents, annotations)

    def to_json(self) -> str:
        """The canonical dump of :meth:`to_dict`, written straight from the values.

        This is ``records.body``: byte for byte
        ``json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))``
        (tests/test_properties.py holds the two equal), with the keys
        of every object spelled here in sorted order.
        """
        agents = ",".join(
            [
                f'{{"kind":{plain_json_text(agent.kind)},"metadata":{{{_members_text(agent.metadata)}}},'
                f'"name":{plain_json_text(agent.name)},"version":{plain_json_text(agent.version)}}}'
                for agent in self._agents
            ]
        )
        ancestors = ",".join([plain_json_text(ancestor.digest) for ancestor in self._ancestors])
        annotations = ",".join(
            [
                f'{{"author":{plain_json_text(ann.author)},"key":{plain_json_text(ann.key)},'
                f'"timestamp":{plain_json_text(ann.timestamp)},"value":{value_json_text(ann.value)}}}'
                for ann in self._annotations
            ]
        )
        return (
            f'{{"agents":[{agents}],"ancestors":[{ancestors}],"annotations":[{annotations}],'
            f'"attributes":{{{_members_text(self._attributes)}}}}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "ProvenanceRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceRecord):
            return NotImplemented
        return self.pname() == other.pname()

    def __hash__(self) -> int:
        return hash(self.pname())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProvenanceRecord({self.pname().short}, "
            f"{len(self._attributes)} attrs, {len(self._ancestors)} ancestors)"
        )


# ----------------------------------------------------------------------
# JSON helpers for attribute values
# ----------------------------------------------------------------------
def _value_to_json(value: AttributeValue):
    if isinstance(value, Timestamp):
        return {"__type__": "timestamp", "seconds": value.seconds}
    if isinstance(value, GeoPoint):
        return {"__type__": "geopoint", "lat": value.latitude, "lon": value.longitude}
    if isinstance(value, tuple):
        return {"__type__": "list", "items": [_value_to_json(item) for item in value]}
    return value


def _value_from_json(value):
    if isinstance(value, dict):
        kind = value.get("__type__")
        if kind == "timestamp":
            return Timestamp(value["seconds"])
        if kind == "geopoint":
            return GeoPoint(value["lat"], value["lon"])
        if kind == "list":
            return tuple(_value_from_json(item) for item in value["items"])
        raise ProvenanceError(f"unknown serialised value type: {kind!r}")
    return value


# Public names: the readings codec (repro.core.tupleset) and the wire
# protocol (repro.server) encode values with exactly the convention the
# SQLite backend persists, so a value round-trips identically through
# every path.  This module is the only place the tag key is spelled.
value_to_json = _value_to_json
value_from_json = _value_from_json

#: how a JSON value's Python type is named in error messages
JSON_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean", dict: "object", list: "array", type(None): "null"
}


def json_name(value) -> str:
    """The JSON name of ``value``'s type, for error messages."""
    return JSON_NAMES.get(type(value), type(value).__name__)


# ----------------------------------------------------------------------
# The stored text form, written without the intermediate dicts
# ----------------------------------------------------------------------
#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: the one
#: generic encoder both stored bodies are defined by.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii
_float_text = float.__repr__
_int_text = int.__repr__


def plain_json_text(obj) -> str:
    """``canonical_json(obj)`` for a value that is plain JSON already.

    Exact ``str``, finite ``float`` and ``int`` are written directly;
    everything else (``None``, ``bool``, subclasses, ``nan``) is handed
    to the generic encoder, so the two cannot differ.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is float:
        if isfinite(obj):
            return _float_text(obj)
    elif kind is int:
        return _int_text(obj)
    return canonical_json(obj)


def value_json_text(value: AttributeValue) -> str:
    """``canonical_json(value_to_json(value))``, written straight from ``value``.

    Fast paths go by *exact* type; a subclass, a non-finite float or a
    type :func:`value_to_json` passes through falls back to the generic
    encoder on ``value_to_json(value)``.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is float:
        if isfinite(value):
            return _float_text(value)
    elif kind is int:
        return _int_text(value)
    elif kind is bool:
        return "true" if value else "false"
    elif kind is Timestamp:
        return f'{{"__type__":"timestamp","seconds":{plain_json_text(value.seconds)}}}'
    elif kind is GeoPoint:
        return (
            f'{{"__type__":"geopoint","lat":{plain_json_text(value.latitude)},'
            f'"lon":{plain_json_text(value.longitude)}}}'
        )
    elif kind is tuple:
        items = ",".join([value_json_text(item) for item in value])
        return f'{{"__type__":"list","items":[{items}]}}'
    return canonical_json(_value_to_json(value))


def _members_text(mapping: Mapping[str, AttributeValue]) -> str:
    """The members of a name -> value object, names sorted, braces left to the caller."""
    return ",".join([f"{_quote(name)}:{value_json_text(mapping[name])}" for name in sorted(mapping)])


def merge_provenance(
    attributes: Mapping[str, AttributeValue],
    parents: Iterable[ProvenanceRecord],
    agent: Optional[Agent] = None,
) -> ProvenanceRecord:
    """Build the provenance of a data set derived from *several* parents.

    Used by join/aggregate pipeline operators and by cross-network
    amalgamation (the paper's "car sightings amalgamated from different
    sensor networks of different types").
    """
    ancestors = [parent.pname() for parent in parents]
    if not ancestors:
        raise ProvenanceError("merge_provenance needs at least one parent record")
    agents = (agent,) if agent is not None else ()
    return ProvenanceRecord(attributes=attributes, ancestors=ancestors, agents=agents)
