"""Inverted attribute index over provenance records.

"Instead of encoding the name as a string, we represent it fully as a
collection of name-value pairs" (Section II-A) -- and then those pairs
must be indexed so that "users will search for data sets based on
subsets of the attributes and values found in provenance metadata"
(Section II-B).

:class:`AttributeIndex` is a straightforward inverted index:

    attribute name -> canonical(value) -> set of PName digests

plus a per-attribute sorted view to answer range queries on
order-compatible values.  The view is built on the first range lookup
or estimate that needs it -- an ingest-only store never pays for one --
and from then on every new or emptied distinct value is slotted in or
out by bisection, so a range query between two writes costs
O(log d + matches), never a re-sort of the attribute.  It is the
workhorse index of the local PASS store and of the centralized /
distributed architecture models.

An index restored from a checkpoint holds each attribute's postings
*unbuilt*: checked whole when the store opens, built on the first probe
that needs that attribute.  A write that reaches an unbuilt attribute
first is kept, in order, and applied by that build.  An unbuilt
attribute maps to ``None`` in the postings, so a probe of a built one
runs the same dictionary lookups as ever and only a miss asks whether
there is a section to build (``docs/STORAGE.md``, *What an open builds
and what it defers*).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.attributes import (
    AttributeValue,
    GeoPoint,
    Timestamp,
    _encode_scalar,
    _ordering_key,
    canonical_encode,
)
from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import ConfigurationError
from repro.index.sections import check_positions

__all__ = ["AttributeIndex"]


class AttributeIndex:
    """Inverted index from attribute values to PName digests.

    Lookups answer in digest strings, the form every structure under the
    query executor is keyed by; the executor's readers wrap what they
    hand out.

    Parameters
    ----------
    indexed_attributes:
        When given, only these attribute names are indexed (the rest can
        still be answered by a scan at the store level).  When ``None``
        every attribute of every record is indexed.
    """

    def __init__(self, indexed_attributes: Optional[Iterable[str]] = None) -> None:
        self._only = set(indexed_attributes) if indexed_attributes is not None else None
        # attribute -> canonical value -> set of digests; None while the
        # attribute's checkpointed section is unbuilt (the key keeps the
        # checkpoint's order for the next snapshot)
        self._postings: Dict[str, Optional[Dict[str, Set[str]]]] = {}
        # attribute -> (its checkpointed section, the writes that reached
        # it since, in order): what the first probe of it builds from
        self._unbuilt: Dict[str, Tuple[Dict[str, list], List[Tuple[AttributeValue, str]]]] = {}
        # the digests a checkpointed section's positions name
        self._section_digests: Sequence[str] = ()
        # attribute -> the canonical encoding of every distinct value, in
        # sort-key order; absent until a range lookup or estimate first
        # needs it, kept in step by _add_one/remove from then on.  (The
        # strings are the postings' own keys: an entry costs no object.)
        self._values: Dict[str, List[str]] = {}
        # attribute -> the parallel list of sort keys, bisected by
        # lookup_range so a range touches only the distinct values
        # inside it instead of every distinct value of the attribute.
        self._sort_keys: Dict[str, List[tuple]] = {}
        # attribute -> canonical -> the list value itself.  Scalars are
        # read back from their encoding when the view is built; a list's
        # encoding cannot be (an item string may contain the separator).
        self._list_values: Dict[str, Dict[str, tuple]] = {}
        self._entries = 0
        # attribute -> number of postings, for planner cost estimates.
        self._attr_entries: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, pname: PName, record: ProvenanceRecord) -> None:
        """Index every (selected) attribute of ``record`` under ``pname``."""
        for name, value in record.attributes.items():
            if self._only is not None and name not in self._only:
                continue
            self._add_one(name, value, pname.digest)

    def add_value(self, pname: PName, name: str, value: AttributeValue) -> None:
        """Index a single name/value pair (used for annotations)."""
        if self._only is not None and name not in self._only:
            return
        self._add_one(name, value, pname.digest)

    def remove(self, pname: PName, record: ProvenanceRecord) -> None:
        """Remove a record's postings (used only by soft-state expiry)."""
        for name, value in record.attributes.items():
            postings = self._postings.get(name) or self._build(name)
            if not postings:
                continue
            encoded = canonical_encode(value)
            bucket = postings.get(encoded)
            if not bucket or pname.digest not in bucket:
                continue
            bucket.discard(pname.digest)
            self._entries -= 1
            self._attr_entries[name] = self._attr_entries.get(name, 1) - 1
            if bucket:
                continue
            del postings[encoded]
            if isinstance(value, tuple):
                # (the value the view is keyed by, should two lists share an encoding)
                value = self._list_values[name].pop(encoded)
            keys = self._sort_keys.get(name)
            if keys is not None:
                # Equal keys (1, 1.0, True) sit side by side: walk the
                # tie run for this encoding.
                entries = self._values[name]
                at = bisect_left(keys, _ordering_key(value))
                while entries[at] != encoded:
                    at += 1
                del keys[at], entries[at]

    def _add_one(self, name: str, value: AttributeValue, digest: str) -> None:
        encoded = canonical_encode(value)
        postings = self._postings.get(name)
        if postings is None:
            if name in self._unbuilt:
                return self._keep_pending(name, encoded, value, digest)
            postings = self._postings[name] = {}
        bucket = postings.get(encoded)
        if bucket is None:
            bucket = postings[encoded] = set()
            if isinstance(value, tuple):
                self._list_values.setdefault(name, {})[encoded] = value
            keys = self._sort_keys.get(name)
            if keys is not None:
                # After its equals: where a stable sort of the postings
                # dict, which just gained this value at its end, puts it.
                # Sensor feeds arrive in order (sequence numbers, window
                # times), so look at the end before bisecting cold memory.
                key = _ordering_key(value)
                at = len(keys) if not keys or keys[-1] <= key else bisect_right(keys, key)
                keys.insert(at, key)
                self._values[name].insert(at, encoded)
        if digest not in bucket:
            bucket.add(digest)
            self._entries += 1
            self._attr_entries[name] = self._attr_entries.get(name, 0) + 1

    def _keep_pending(self, name: str, encoded: str, value: AttributeValue, digest: str) -> None:
        """A write to an unbuilt attribute: kept for the build, which applies it."""
        section, tail = self._unbuilt[name]
        tail.append((value, digest))
        if isinstance(value, tuple) and encoded not in section:
            # entered now, where a built index enters a new list value, so
            # that the next snapshot lists list values in write order
            self._list_values.setdefault(name, {}).setdefault(encoded, value)

    def _build(self, attribute: str) -> Dict[str, Set[str]]:
        """Build ``attribute``'s checkpointed postings, then its pending writes.

        Returns the postings; ``{}`` (not stored) when the attribute has
        no section waiting.  A section passed :meth:`restore`'s checks,
        so building it raises nothing.
        """
        pending = self._unbuilt.pop(attribute, None)
        if pending is None:
            return {}
        section, tail = pending
        digests = self._section_digests
        postings = self._postings[attribute] = {
            encoded: {digests[at] for at in positions} for encoded, positions in section.items()
        }
        entries = sum(map(len, postings.values()))
        self._attr_entries[attribute] = entries
        self._entries += entries
        for value, digest in tail:
            self._add_one(attribute, value, digest)
        return postings

    def _build_all(self) -> None:
        for name in list(self._unbuilt):
            self._build(name)

    # ------------------------------------------------------------------
    # Checkpoint (the store persists it so that a reopen need not replay)
    # ------------------------------------------------------------------
    def snapshot(self, position_of: Dict[str, int]) -> dict:
        """The postings as JSON-ready data, each PName named by ``position_of`` its digest.

        Unbuilt attributes are built first.  The sorted views are left
        out: the first range lookup rebuilds them, as it does after a
        replay.
        """
        self._build_all()
        return {
            "postings": {
                name: {encoded: sorted(position_of[d] for d in bucket) for encoded, bucket in buckets.items()}
                for name, buckets in self._postings.items()
            },
            "lists": {
                name: {encoded: [_encode_scalar(item) for item in value] for encoded, value in values.items()}
                for name, values in self._list_values.items()
            },
        }

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`snapshot` into this empty index; ``digests[position]`` names a PName.

        Every attribute's postings are checked now and left unbuilt: the
        first probe that needs one builds it.  State that no snapshot
        produces raises here (``ValueError``, ``TypeError``, ``LookupError``
        or ``AttributeError``) and leaves the index as it was.
        """
        postings: Dict[str, Optional[Dict[str, Set[str]]]] = {}
        unbuilt = {}
        for name, section in state["postings"].items():
            if not self.covers(name):
                raise ValueError(f"postings for {name!r}, which this index does not cover")
            # (a bucket that is no list raises here, as building it would)
            positions = list(chain.from_iterable(section.values()))
            if not all(section.values()):
                raise ValueError("empty posting bucket")
            check_positions(positions, len(digests))
            postings[name] = None
            unbuilt[name] = (section, [])
        list_values = {
            name: {encoded: tuple(self._decode_for_sort(item) for item in items) for encoded, items in values.items()}
            for name, values in state["lists"].items()
        }
        self._postings, self._list_values = postings, list_values
        self._unbuilt, self._section_digests = unbuilt, digests

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def indexed_attributes(self) -> List[str]:
        """Attribute names that currently have postings."""
        return sorted(self._postings)

    def entry_count(self) -> int:
        """Total number of (attribute, value, pname) postings (builds every unbuilt attribute)."""
        self._build_all()
        return self._entries

    def unbuilt(self) -> List[str]:
        """The attributes whose checkpointed postings no probe has needed yet, sorted."""
        return sorted(self._unbuilt)

    def covers(self, attribute: str) -> bool:
        """True when lookups on ``attribute`` can use the index."""
        if self._only is not None and attribute not in self._only:
            return False
        return True

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, attribute: str, value: AttributeValue) -> Set[str]:
        """Exact-match lookup: the digests carrying ``attribute == value``.

        The bucket itself when there is one (a live view: callers must
        not mutate it), else a fresh empty set.
        """
        postings = self._postings.get(attribute) or self._build(attribute)
        return postings.get(canonical_encode(value)) or set()

    def lookup_any(self, attribute: str, values: Iterable[AttributeValue]) -> Set[str]:
        """Union of exact-match lookups over several values."""
        return set().union(*(self.lookup(attribute, value) for value in values))

    def lookup_range(
        self,
        attribute: str,
        low: Optional[AttributeValue] = None,
        high: Optional[AttributeValue] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[str]:
        """Range lookup over order-compatible values of one attribute.

        Values of a kind incompatible with the bounds are skipped (they
        cannot fall inside the range).  The sorted per-attribute view is
        bisected on the bounds, so the lookup touches only the distinct
        values actually inside the range (O(log d + matches)).
        """
        entries, lo_idx, hi_idx = self._range_bounds(
            attribute, low, high, include_low, include_high
        )
        postings = self._postings.get(attribute, {})
        return set().union(*(postings[encoded] for encoded in entries[lo_idx:hi_idx]))

    def lookup_all(self, attribute: str) -> Set[str]:
        """Every digest carrying ``attribute`` at all (the 'exists' lookup)."""
        postings = self._postings.get(attribute) or self._build(attribute)
        return set().union(*postings.values())

    # ------------------------------------------------------------------
    # Cardinality estimates (planner cost model; never fetch records)
    # ------------------------------------------------------------------
    def count(self, attribute: str, value: AttributeValue) -> int:
        """Exact posting count for one value (free: one dict probe)."""
        postings = self._postings.get(attribute) or self._build(attribute)
        return len(postings.get(canonical_encode(value), ()))

    def count_any(self, attribute: str, values: Iterable[AttributeValue]) -> int:
        """Upper bound on a multi-probe's result size (buckets may overlap)."""
        return sum(self.count(attribute, value) for value in values)

    def attribute_entry_count(self, attribute: str) -> int:
        """Total postings under ``attribute`` (records carrying it, counted per value)."""
        entries = self._attr_entries.get(attribute)
        if entries is None:
            self._build(attribute)
            entries = self._attr_entries.get(attribute, 0)
        return entries

    def estimate_range(
        self,
        attribute: str,
        low: Optional[AttributeValue] = None,
        high: Optional[AttributeValue] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Estimated postings inside a range: distinct-in-range x mean bucket size.

        Costs two bisections; it never walks buckets, so the planner can
        afford to estimate every candidate range before choosing one.
        """
        entries, lo_idx, hi_idx = self._range_bounds(
            attribute, low, high, include_low, include_high
        )
        distinct_in_range = hi_idx - lo_idx
        cardinality = len(entries)
        if cardinality == 0 or distinct_in_range == 0:
            return 0
        mean_bucket = self.attribute_entry_count(attribute) / cardinality
        return max(1, round(distinct_in_range * mean_bucket))

    def distinct_values(self, attribute: str) -> List[AttributeValue]:
        """Every distinct value indexed under ``attribute`` (sorted when possible)."""
        return [self._value_of(attribute, encoded) for encoded in self._sorted_values(attribute)]

    def cardinality(self, attribute: str) -> int:
        """Number of distinct values indexed for ``attribute``.

        Counted without building an unbuilt attribute (``stats()`` asks
        for every attribute's): a checked section's buckets are non-empty.
        """
        postings = self._postings.get(attribute)
        if postings is not None:
            return len(postings)
        section, tail = self._unbuilt.get(attribute, ({}, ()))
        return len(section.keys() | {canonical_encode(value) for value, _ in tail})

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sorted_values(self, attribute: str) -> List[str]:
        entries = self._values.get(attribute)
        if entries is None:
            postings = self._postings.get(attribute)
            if postings is None:
                if attribute not in self._unbuilt:
                    return []
                postings = self._build(attribute)
            keyed = [
                (_ordering_key(self._value_of(attribute, encoded)), encoded) for encoded in postings
            ]
            # Stable, so equal keys keep the postings dict's order.
            keyed.sort(key=itemgetter(0))
            self._sort_keys[attribute] = [key for key, _ in keyed]
            entries = self._values[attribute] = [encoded for _, encoded in keyed]
        return entries

    def _value_of(self, attribute: str, encoded: str) -> AttributeValue:
        value = self._list_values.get(attribute, {}).get(encoded)
        return self._decode_for_sort(encoded) if value is None else value

    def _range_bounds(
        self, attribute, low, high, include_low, include_high
    ) -> Tuple[List[str], int, int]:
        """Bisect the sorted view down to ``(entries, lo_idx, hi_idx)``.

        Entries and bounds are keyed by the one ordering the comparison
        predicates use (:func:`repro.core.attributes.compare_values` via
        ``_ordering_key``), so a bisected range can never disagree with
        predicate evaluation.
        """
        if low is None and high is None:
            raise ConfigurationError("range lookup needs at least one bound")
        entries = self._sorted_values(attribute)
        keys = self._sort_keys.get(attribute, [])
        try:
            low_key = None if low is None else _ordering_key(low)
            high_key = None if high is None else _ordering_key(high)
        except ConfigurationError:
            # Not an attribute value: nothing compares inside it.
            return entries, 0, 0
        kind = (low_key or high_key)[0]
        if (high_key or low_key)[0] != kind:
            # Bounds of different kinds: no value can satisfy both.
            return entries, 0, 0
        if low_key is None:
            lo_idx = bisect_left(keys, (kind,))
        elif include_low:
            lo_idx = bisect_left(keys, low_key)
        else:
            lo_idx = bisect_right(keys, low_key)
        if high_key is None:
            # A string strictly greater than the bare kind tag bounds the
            # whole segment of that kind from above.
            hi_idx = bisect_left(keys, (kind + "\uffff",))
        elif include_high:
            hi_idx = bisect_right(keys, high_key)
        else:
            hi_idx = bisect_left(keys, high_key)
        return entries, lo_idx, max(lo_idx, hi_idx)

    @staticmethod
    def _decode_for_sort(encoded: str) -> AttributeValue:
        """The scalar a canonical encoding stands for."""
        tag, _, body = encoded.partition(":")
        if tag == "i":
            return int(body)
        if tag == "f":
            return float(body)
        if tag == "b":
            return bool(int(body))
        if tag == "t":
            return Timestamp(float(body))
        if tag == "g":
            lat_text, _, lon_text = body.partition(",")
            return GeoPoint(float(lat_text), float(lon_text))
        return body
