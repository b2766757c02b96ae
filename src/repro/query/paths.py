"""Access paths: the physical operators the planner chooses among.

Each path knows three things:

* how to *estimate* its result cardinality from the store's
  :class:`~repro.query.statistics.Statistics` and index metadata without
  fetching a single record,
* how to *probe* the store's indexes for the candidate names -- digest
  strings, the form every index, the graph and the backends are keyed
  by; the executor's readers wrap what they hand out,
* how many index probes it performs (so the store's counters can charge
  each probe exactly once).

Every path is **complete** -- it returns a superset of the true matches
among stored records.  An :attr:`~AccessPath.exact` path returns no
more than those, so the planner drops its conjunct from what the
executor re-tests; and when nothing is left to re-test and the path is
:attr:`~AccessPath.index_only`, the sorted hits are the answer and no
record is fetched.  Soundness never depends on estimate quality; only
performance does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Set

from repro.core.attributes import AttributeValue, GeoPoint, Timestamp
from repro.core.provenance import PName
from repro.obs import trace

__all__ = [
    "AccessPath",
    "FullScanPath",
    "EqualityProbe",
    "MultiProbe",
    "RangeProbe",
    "ExistsProbe",
    "TemporalOverlapProbe",
    "SpatialRadiusProbe",
    "LineageAncestorsProbe",
    "LineageDescendantsProbe",
    "IndexIntersection",
    "IndexUnion",
]


class AccessPath(ABC):
    """One way of producing candidate names (digests) for a query."""

    #: short machine-readable operator name, shown in Explain output
    kind = "abstract"
    #: True when :meth:`probe` returns *exactly* the stored records
    #: matching the conjunct it was built from (not merely a superset).
    #: The planner drops exactly-covered conjuncts from the residual
    #: predicate, so e.g. a lineage conjunct is never re-evaluated per
    #: candidate after its probe already enumerated the closure.
    exact = False
    #: True when every name :meth:`probe` returns has a stored record:
    #: with nothing left to re-test, the executor answers from the hits
    #: without fetching.  The attribute, temporal and spatial indexes
    #: hold stored records only; a closure can name an ancestor the
    #: store has no record for, and the fetch is what drops it.
    index_only = True

    @abstractmethod
    def describe(self) -> str:
        """Human-readable operator description for Explain output."""

    @abstractmethod
    def estimate(self, store) -> int:
        """Estimated candidate rows; must not fetch records."""

    @abstractmethod
    def probe(self, store) -> Set[str]:
        """Execute the index probe(s) and return the candidate digests.

        The set may be an index's own bucket: read it, never mutate it.
        """

    def pnames(self, digests: Sequence[str]) -> List[PName]:
        """``digests`` (hits of the last :meth:`probe`) wrapped for a backend fetch."""
        return [PName(digest) for digest in digests]

    @property
    def probe_count(self) -> int:
        """How many index probes :meth:`probe` performs (stats accounting)."""
        return 1

    def probes_run(self) -> int:
        """Probes actually executed by the last :meth:`probe` call.

        Equals :attr:`probe_count` except for operators that can
        short-circuit (an intersection stops once empty); the executor
        charges this, so ``index_hits`` never counts a skipped probe.
        """
        return self.probe_count


class FullScanPath(AccessPath):
    """Scan every stored record; the plan of last resort."""

    kind = "full-scan"

    def describe(self) -> str:
        return "full scan over all records"

    def estimate(self, store) -> int:
        return store.statistics.record_count

    def probe(self, store) -> Set[str]:  # pragma: no cover - executor special-cases
        return {pname.digest for pname, _ in store.backend.iter_records()}

    @property
    def probe_count(self) -> int:
        return 0


class _AttributeProbe(AccessPath):
    """Common ground of the four attribute-index probes.

    They are exact on a real attribute: attributes are immutable, every
    record carrying one has its posting, and the index is keyed by the
    very ``canonical_encode`` / ``_ordering_key`` the predicates compare
    with.  Not on an ``annotation:`` name: its buckets keep every value
    ever attached while the predicate reads only the latest, and a real
    attribute of that name wins over both -- those probes only generate
    candidates, and the executor re-tests each.
    """

    #: the attribute probed; every subclass sets it
    name: str

    @property
    def exact(self) -> bool:
        return not self.name.startswith("annotation:")


class EqualityProbe(_AttributeProbe):
    """One inverted-index bucket: ``attribute == value``."""

    kind = "attr-eq"

    def __init__(self, name: str, value: AttributeValue) -> None:
        self.name = name
        self.value = value

    def describe(self) -> str:
        return f"attribute-equality index probe on {self.name!r}"

    def estimate(self, store) -> int:
        # Bucket sizes are known exactly: one dict probe, no fetches.
        return store.attribute_index.count(self.name, self.value)

    def probe(self, store) -> Set[str]:
        return store.attribute_index.lookup(self.name, self.value)


class MultiProbe(_AttributeProbe):
    """Union of several equality buckets: ``attribute IN (v1, v2, ...)``."""

    kind = "attr-in"

    def __init__(self, name: str, values: Sequence[AttributeValue]) -> None:
        self.name = name
        self.values = tuple(values)

    def describe(self) -> str:
        return f"attribute multi-probe on {self.name!r} ({len(self.values)} values)"

    def estimate(self, store) -> int:
        return store.attribute_index.count_any(self.name, self.values)

    def probe(self, store) -> Set[str]:
        return store.attribute_index.lookup_any(self.name, self.values)

    @property
    def probe_count(self) -> int:
        return len(self.values)


class RangeProbe(_AttributeProbe):
    """Bisected scan of an attribute's sorted value view."""

    kind = "attr-range"

    def __init__(
        self,
        name: str,
        low: Optional[AttributeValue],
        high: Optional[AttributeValue],
        include_low: bool = True,
        include_high: bool = True,
    ) -> None:
        self.name = name
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def describe(self) -> str:
        low = "-inf" if self.low is None else str(self.low)
        high = "+inf" if self.high is None else str(self.high)
        return f"attribute-range index scan on {self.name!r} [{low} .. {high}]"

    def estimate(self, store) -> int:
        return store.attribute_index.estimate_range(
            self.name, self.low, self.high, self.include_low, self.include_high
        )

    def probe(self, store) -> Set[str]:
        return store.attribute_index.lookup_range(
            self.name, self.low, self.high, self.include_low, self.include_high
        )


class ExistsProbe(_AttributeProbe):
    """Union of every bucket of one attribute (``attribute exists``)."""

    kind = "attr-exists"

    def __init__(self, name: str) -> None:
        self.name = name

    def describe(self) -> str:
        return f"attribute-exists index scan on {self.name!r}"

    def estimate(self, store) -> int:
        return store.attribute_index.attribute_entry_count(self.name)

    def probe(self, store) -> Set[str]:
        return store.attribute_index.lookup_all(self.name)


class TemporalOverlapProbe(AccessPath):
    """Time-window overlap through the temporal index.

    Exact: the index holds exactly the records ingest gave a
    ``Timestamp`` window, and compares closed intervals as
    :class:`~repro.core.query.TimeWindowOverlaps` does.
    """

    kind = "temporal-overlap"
    exact = True

    def __init__(self, start: Timestamp, end: Timestamp) -> None:
        self.start = start
        self.end = end

    def describe(self) -> str:
        return f"temporal-overlap index scan [{self.start} .. {self.end}]"

    def estimate(self, store) -> int:
        return store.temporal_index.estimate_overlapping(self.start, self.end)

    def probe(self, store) -> Set[str]:
        return store.temporal_index.overlapping(self.start, self.end)


class SpatialRadiusProbe(AccessPath):
    """Geographic radius through the spatial grid index.

    Exact: the index holds exactly the records with a ``GeoPoint``
    ``location``, and keeps those ``<= radius`` away by the distance
    :class:`~repro.core.query.NearLocation` computes.
    """

    kind = "spatial-radius"
    exact = True

    def __init__(self, centre: GeoPoint, radius_km: float) -> None:
        self.centre = centre
        self.radius_km = radius_km

    def describe(self) -> str:
        return f"spatial-radius index scan ({self.radius_km} km around {self.centre})"

    def estimate(self, store) -> int:
        return store.spatial_index.estimate_within(self.centre, self.radius_km)

    def probe(self, store) -> Set[str]:
        return store.spatial_index.within_radius(self.centre, self.radius_km)


class _LineageProbe(AccessPath):
    """Common machinery of the two lineage reachability probes.

    The probe asks the store's closure engine for one output-sensitive
    enumeration instead of testing reachability per stored record; with
    the :mod:`repro.lineage` interval index that is O(answer), and even
    the naive strategy pays one BFS instead of one per record.  The
    probe is *exact*: a stored record is in the probe set iff it matches
    the lineage conjunct, so the executor never re-evaluates it.  It is
    not *index-only*: the closure also names ancestors known by their
    PName alone, so the executor fetches.
    """

    exact = True
    index_only = False
    #: "ancestors" or "descendants"; subclasses pin it
    direction = "abstract"

    def __init__(self, focus: PName, include_self: bool = False) -> None:
        self.focus = focus
        self.include_self = include_self

    def describe(self) -> str:
        suffix = " (incl. the focus itself)" if self.include_self else ""
        return f"lineage reachability probe: {self.direction} of {self.focus.short}{suffix}"

    def estimate(self, store) -> int:
        if self.focus not in store.graph:
            return 1 if self.include_self else 0
        estimator = (
            store.closure.estimate_ancestors
            if self.direction == "ancestors"
            else store.closure.estimate_descendants
        )
        estimated = estimator(self.focus)
        if estimated is None:
            # Strategy cannot answer cheaply: price from the store's
            # depth-histogram / fan-out statistics instead.
            estimated = store.graph_stats.expected_reach()
        return estimated + (1 if self.include_self else 0)

    def probe(self, store) -> Set[str]:
        with trace.span(
            "closure.probe",
            attrs={"direction": self.direction, "focus": self.focus.short},
        ):
            if self.focus in store.graph:
                walker = (
                    store.closure.ancestor_digests
                    if self.direction == "ancestors"
                    else store.closure.descendant_digests
                )
                found = set(walker(self.focus))
            else:
                found = set()
            if self.include_self:
                found.add(self.focus.digest)
            return found


class LineageAncestorsProbe(_LineageProbe):
    """Candidates for ``AncestorOf(x)``: the ancestor closure of ``x``."""

    kind = "lineage-ancestors"
    direction = "ancestors"


class LineageDescendantsProbe(_LineageProbe):
    """Candidates for ``DerivedFrom(x)``: the descendant (taint) closure of ``x``."""

    kind = "lineage-descendants"
    direction = "descendants"


class IndexIntersection(AccessPath):
    """Intersect several index paths (conjunctions of selective conjuncts)."""

    kind = "index-intersection"

    def __init__(self, paths: Sequence[AccessPath]) -> None:
        self.paths = list(paths)
        self._probes_run = 0

    @property
    def exact(self) -> bool:
        return all(path.exact for path in self.paths)

    @property
    def index_only(self) -> bool:
        # What survives the intersection is among every part's hits.
        return any(path.index_only for path in self.paths)

    def describe(self) -> str:
        inner = " & ".join(path.describe() for path in self.paths)
        return f"intersection of [{inner}]"

    def estimate(self, store) -> int:
        # Candidates fetched = the intersection; bounded by the smallest input.
        return min(path.estimate(store) for path in self.paths)

    def probe(self, store) -> Set[str]:
        result: Optional[Set[str]] = None
        self._probes_run = 0
        # Probe cheapest-first so later intersections shrink fast.
        for path in sorted(self.paths, key=lambda p: p.estimate(store)):
            hits = path.probe(store)
            self._probes_run += path.probes_run()
            result = hits if result is None else (result & hits)
            if not result:
                break  # short-circuit: remaining probes never execute
        return result if result is not None else set()

    @property
    def probe_count(self) -> int:
        return sum(path.probe_count for path in self.paths)

    def probes_run(self) -> int:
        return self._probes_run


class IndexUnion(AccessPath):
    """Union of index paths (a disjunction whose branches are all sargable)."""

    kind = "index-union"

    def __init__(self, paths: Sequence[AccessPath]) -> None:
        self.paths = list(paths)

    @property
    def exact(self) -> bool:
        return all(path.exact for path in self.paths)

    @property
    def index_only(self) -> bool:
        return all(path.index_only for path in self.paths)

    def describe(self) -> str:
        inner = " | ".join(path.describe() for path in self.paths)
        return f"union of [{inner}]"

    def estimate(self, store) -> int:
        return sum(path.estimate(store) for path in self.paths)

    def probe(self, store) -> Set[str]:
        return set().union(*(path.probe(store) for path in self.paths))

    @property
    def probe_count(self) -> int:
        return sum(path.probe_count for path in self.paths)

    def probes_run(self) -> int:
        return sum(path.probes_run() for path in self.paths)
