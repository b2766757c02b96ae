"""Transitive-closure strategies for provenance queries.

Section II-B of the paper: "the indexing structures in sensor data
storage systems must provide for efficient lookups in many dimensions,
as well as efficient recursive or transitive queries.  Simple relational
or XML-based name-to-value schemes are not sufficient".

This module implements three strategies with different cost profiles and
a common interface; a fourth, the interval/chain reachability index in
:mod:`repro.lineage`, is the one every PASS store runs.  The other three
live for experiment E3 and as test oracles, and :func:`make_closure`
makes any of the four by name:

* :class:`NaiveClosure` -- answer each query with a fresh BFS over the
  provenance graph.  This is what a plain relational scheme would do
  with repeated self-joins: cheap to maintain, expensive to query on
  deep lineage.
* :class:`MemoizedClosure` -- the same walk, but cache per-node ancestor
  sets and invalidate them when new edges arrive.  Good for read-heavy
  phases.
* :class:`LabelledClosure` -- maintain full ancestor/descendant label
  sets incrementally on edge insertion (a reachability-labelling
  approach).  Queries are set lookups; updates pay the propagation cost.

All strategies answer the same three questions: the ancestor set, the
descendant set, and pairwise reachability.  A labelling is derived
state: no strategy serialises it, and one over a populated graph is
built in bulk, the same way for every strategy
(:meth:`ClosureStrategy._build_in_bulk`) -- ``labelled`` when it is
made, ``interval`` (a store opening over its records) by its first read.
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Set

from repro.core.bulk import collector_paused
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName
from repro.errors import UnknownEntityError
from repro.obs import trace

__all__ = [
    "ClosureStrategy",
    "NaiveClosure",
    "MemoizedClosure",
    "LabelledClosure",
    "STRATEGY_NAMES",
    "make_closure",
]

#: the name of every strategy, as :func:`make_closure` takes it
STRATEGY_NAMES = ("naive", "memoized", "labelled", "interval")

_LOGGER = logging.getLogger("repro.core")


class ClosureStrategy(ABC):
    """Common interface of the transitive-closure strategies.

    Each strategy is attached to one :class:`ProvenanceGraph`; edges must
    be added through :meth:`add_edge` (or :meth:`add_record_edges`) so the
    strategy can maintain whatever auxiliary state it needs.  The
    ``operations`` counter tracks how many node visits / set updates the
    strategy performed, which is what experiment E3 reports.  A strategy
    implements the digest-level pair ``ancestor_digests`` /
    ``descendant_digests``; the ``Set[PName]`` answers name those here
    by the graph's own names (:meth:`ProvenanceGraph.name_of`).
    """

    #: short machine-readable name used by benchmarks and reports
    name = "abstract"

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        self.graph = graph if graph is not None else ProvenanceGraph()
        self.operations = 0

    # -- maintenance ----------------------------------------------------
    def add_node(self, pname: PName) -> None:
        """Register a node with the underlying graph and the strategy."""
        self.graph.add_node(pname)

    def add_edge(self, child: PName, parent: PName) -> None:
        """Record a derivation edge (child derived from parent)."""
        self.graph.add_edge(child, parent)
        self._on_edge(child, parent)

    def reset_counters(self) -> None:
        """Zero the operation counter (benchmarks call this between phases)."""
        self.operations = 0

    # -- queries ---------------------------------------------------------
    @abstractmethod
    def ancestor_digests(self, pname: PName) -> List[str]:
        """The digest of every transitive ancestor of ``pname``.

        Each once, ``pname``'s own never, in no particular order; a new
        list the caller may do anything with.
        """

    @abstractmethod
    def descendant_digests(self, pname: PName) -> List[str]:
        """The digest of every transitive descendant of ``pname`` (as :meth:`ancestor_digests`)."""

    def ancestors(self, pname: PName) -> Set[PName]:
        """All transitive ancestors of ``pname``, by their graph-held names."""
        return set(map(self.graph.name_of, self.ancestor_digests(pname)))

    def descendants(self, pname: PName) -> Set[PName]:
        """All transitive descendants of ``pname``, by their graph-held names."""
        return set(map(self.graph.name_of, self.descendant_digests(pname)))

    def reachable(self, ancestor: PName, descendant: PName) -> bool:
        """True when ``descendant`` was (transitively) derived from ``ancestor``."""
        return ancestor.digest in self.ancestor_digests(descendant)

    def _build_in_bulk(self) -> None:
        """Run :meth:`_label_every_node` the one way a labelling is built in bulk.

        With the cyclic collector paused (everything the build allocates
        stays live, :mod:`repro.core.bulk`), inside one
        ``closure.build_labels`` span, and said at INFO on ``repro.core``
        with its size and time.
        """
        started = time.perf_counter()
        with trace.span("closure.build_labels"), collector_paused():
            self._label_every_node()
        if _LOGGER.isEnabledFor(logging.INFO):
            _LOGGER.info(
                "closure labels built: nodes=%d label_entries=%d duration_ms=%.3f",
                len(self.graph),
                self._label_entries(),
                (time.perf_counter() - started) * 1000.0,
            )

    def _label_every_node(self) -> None:
        """Label every node of the graph as it stands (a strategy with labels overrides this)."""

    def _walk(self, pname: PName, up: bool) -> Set[str]:
        """Walk the graph from ``pname``: the one BFS the walking strategies answer through.

        Counts one operation per node the walk visits, ``pname``'s own
        included, and returns :meth:`ProvenanceGraph.walk`'s new set.
        """
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")
        reached = self.graph.walk(pname.digest, up)
        self.operations += 1 + len(reached)
        return reached

    # -- reporting ---------------------------------------------------------
    def index_stats(self) -> dict:
        """Facts about the strategy's auxiliary structures (CLI / stats())."""
        return {"strategy": self.name, "operations": self.operations}

    def _label_entries(self) -> int:
        """Entries the materialized labels hold (0 for a strategy without labels)."""
        return 0

    # -- hooks -------------------------------------------------------------
    def _on_edge(self, child: PName, parent: PName) -> None:
        """Strategy-specific bookkeeping after an edge insertion."""


class NaiveClosure(ClosureStrategy):
    """Fresh BFS per query; no auxiliary state.

    This models the "simple relational name-to-value scheme" the paper
    says is not sufficient: every recursive query re-walks the lineage.
    """

    name = "naive"

    def ancestor_digests(self, pname: PName) -> List[str]:
        return list(self._walk(pname, up=True))

    def descendant_digests(self, pname: PName) -> List[str]:
        return list(self._walk(pname, up=False))


class MemoizedClosure(ClosureStrategy):
    """BFS with per-node result caching, invalidated on edge insertion.

    The cache maps a node to its full ancestor (or descendant) set.  A
    new edge ``child -> parent`` can only change the ancestor sets of
    ``child`` and its descendants, and the descendant sets of ``parent``
    and its ancestors, so only those entries are dropped.
    """

    name = "memoized"

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        super().__init__(graph)
        self._ancestor_cache: Dict[str, Set[str]] = {}
        self._descendant_cache: Dict[str, Set[str]] = {}

    def ancestor_digests(self, pname: PName) -> List[str]:
        return list(self._cached(pname, up=True))  # the entry itself stays the cache's

    def descendant_digests(self, pname: PName) -> List[str]:
        return list(self._cached(pname, up=False))

    def _cached(self, pname: PName, up: bool) -> Set[str]:
        cache = self._ancestor_cache if up else self._descendant_cache
        hit = cache.get(pname.digest)  # (only a node is ever cached)
        if hit is not None:
            self.operations += 1
            return hit
        reached = cache[pname.digest] = self._walk(pname, up)
        return reached

    def _on_edge(self, child: PName, parent: PName) -> None:
        # Invalidate ancestor sets of the child and everything below it,
        # and descendant sets of the parent and everything above it.
        walk = self.graph.walk
        for digest in (child.digest, *walk(child.digest, up=False)):
            self._ancestor_cache.pop(digest, None)
        for digest in (parent.digest, *walk(parent.digest, up=True)):
            self._descendant_cache.pop(digest, None)


class LabelledClosure(ClosureStrategy):
    """Maintain complete ancestor/descendant label sets incrementally.

    On inserting ``child -> parent`` the parent's ancestor label set
    (plus the parent itself) is added to the child and to every
    descendant of the child; symmetrically for descendant labels.
    Queries then cost a dictionary lookup.  This is the kind of
    structure the paper's research agenda asks for ("efficient support
    for transitive closure queries").

    Made over an empty graph the labels are kept edge by edge from the
    start; made over a populated one they are built in one pass by the
    constructor.
    """

    name = "labelled"

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        super().__init__(graph)
        self._ancestor_labels: Dict[str, Set[str]] = {}
        self._descendant_labels: Dict[str, Set[str]] = {}
        if len(self.graph):
            self._build_in_bulk()

    def add_node(self, pname: PName) -> None:
        super().add_node(pname)
        self._ancestor_labels.setdefault(pname.digest, set())
        self._descendant_labels.setdefault(pname.digest, set())

    def ancestor_digests(self, pname: PName) -> List[str]:
        return self._labels_of(pname, up=True)

    def descendant_digests(self, pname: PName) -> List[str]:
        return self._labels_of(pname, up=False)

    def _labels_of(self, pname: PName, up: bool) -> List[str]:
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")
        self.operations += 1
        labels = self._ancestor_labels if up else self._descendant_labels
        # A copy: whatever a caller does with it, the label set stays as built.
        return list(labels.get(pname.digest, ()))

    def reachable(self, ancestor: PName, descendant: PName) -> bool:
        if descendant not in self.graph or ancestor not in self.graph:
            raise UnknownEntityError("unknown node in reachability query")
        self.operations += 1
        return ancestor.digest in self._ancestor_labels.get(descendant.digest, set())

    def _label_entries(self) -> int:
        return sum(len(s) for s in self._ancestor_labels.values()) + sum(
            len(s) for s in self._descendant_labels.values()
        )

    def _label_every_node(self) -> None:
        # (on the graph's digest-level views: this is most of the cost)
        nodes = self.graph.node_digests()
        self._ancestor_labels = {digest: set() for digest in nodes}
        self._descendant_labels = {digest: set() for digest in nodes}
        for child in nodes:
            for parent in sorted(self.graph.parents_of(child)):
                self._propagate(child, parent)

    def _on_edge(self, child: PName, parent: PName) -> None:
        self._ancestor_labels.setdefault(child.digest, set())
        self._descendant_labels.setdefault(child.digest, set())
        self._ancestor_labels.setdefault(parent.digest, set())
        self._descendant_labels.setdefault(parent.digest, set())
        self._propagate(child.digest, parent.digest)

    def _propagate(self, child: str, parent: str) -> None:
        new_ancestors = {parent} | self._ancestor_labels.get(parent, set())
        new_descendants = {child} | self._descendant_labels.get(child, set())
        # Nodes whose ancestor labels gain new_ancestors: child and all its
        # descendants.  Nodes whose descendant labels gain new_descendants:
        # parent and all its ancestors.
        for target in [child, *self._descendant_labels.get(child, set())]:
            before = len(self._ancestor_labels.setdefault(target, set()))
            self._ancestor_labels[target] |= new_ancestors
            self.operations += len(self._ancestor_labels[target]) - before + 1
        for target in [parent, *self._ancestor_labels.get(parent, set())]:
            before = len(self._descendant_labels.setdefault(target, set()))
            self._descendant_labels[target] |= new_descendants
            self.operations += len(self._descendant_labels[target]) - before + 1


def make_closure(name: str, graph: Optional[ProvenanceGraph] = None) -> ClosureStrategy:
    """A new strategy of one of the :data:`STRATEGY_NAMES`, over ``graph`` (default: a new, empty one)."""
    # (imported here: the interval engine subclasses ClosureStrategy, so
    # repro.lineage imports this module, never the other way at load)
    from repro.lineage.interval import IntervalClosure

    for strategy in (NaiveClosure, MemoizedClosure, LabelledClosure, IntervalClosure):
        if strategy.name == name:
            return strategy(graph)
    raise UnknownEntityError(f"unknown closure strategy {name!r}; choose from {sorted(STRATEGY_NAMES)}")
