"""Transitive-closure strategies for provenance queries.

Section II-B of the paper: "the indexing structures in sensor data
storage systems must provide for efficient lookups in many dimensions,
as well as efficient recursive or transitive queries.  Simple relational
or XML-based name-to-value schemes are not sufficient".

This module implements three strategies with different cost profiles and
a common interface, so the PASS store (and experiment E3) can swap them
(a fourth, the interval/chain reachability index, lives in
:mod:`repro.lineage` and registers itself here under ``"interval"``):

* :class:`NaiveClosure` -- answer each query with a fresh BFS over the
  provenance graph.  This is what a plain relational scheme would do
  with repeated self-joins: cheap to maintain, expensive to query on
  deep lineage.
* :class:`MemoizedClosure` -- BFS, but cache per-node ancestor sets and
  invalidate them when new edges arrive.  Good for read-heavy phases.
* :class:`LabelledClosure` -- maintain full ancestor/descendant label
  sets incrementally on edge insertion (a reachability-labelling
  approach).  Queries are set lookups; updates pay the propagation cost.

All strategies answer the same three questions: the ancestor set, the
descendant set, and pairwise reachability.  A labelling is derived
state: no strategy serialises it, and one made over a populated graph
(a store opening over its records) is built in bulk by its first read,
the same way for every strategy (:meth:`ClosureStrategy._build_in_bulk`).
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from collections import deque
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
    "make_closure",
    "register_strategy",
]

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
    #: True when :meth:`reachable` answers from materialized labels
    #: (O(labels) per probe) rather than walking the graph.  Consumers
    #: on hot paths -- the stream engine's per-ingest descendant-watch
    #: matching -- only route through the strategy when this holds.
    fast_reachability = False

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

    def for_graph(self, graph: ProvenanceGraph) -> "ClosureStrategy":
        """A strategy of the same class bound to ``graph``.

        A strategy instance carries auxiliary state derived from *its*
        graph (caches, reachability labels), so a store never adopts a
        caller's instance directly -- rebinding ``.graph`` under an
        instance shared with another store would silently corrupt both.
        Instead the store asks for a sibling bound to its own graph.
        Subclasses whose constructor takes more than the graph must
        override this.
        """
        if self.graph is graph:
            return self
        return type(self)(graph)

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

    # -- planner estimates ------------------------------------------------
    def estimate_ancestors(self, pname: PName) -> int:
        """How many ancestors ``pname`` has, for the query planner.

        Exact on every strategy: this one counts by walking; strategies
        with materialized labels override it to count their labels.
        """
        return len(self.ancestor_digests(pname))

    def estimate_descendants(self, pname: PName) -> int:
        """How many descendants ``pname`` has (as :meth:`estimate_ancestors`)."""
        return len(self.descendant_digests(pname))

    def rebuild(self) -> None:
        """Recompute the strategy's auxiliary structures from the graph.

        The administrative "rebuild the index now" verb (exposed end to
        end as the daemon's async build job).  Strategies without
        materialized state have nothing to recompute, so the default is
        a no-op; strategies that cache (memoized) or label (interval)
        drop/refresh their structures here.
        """

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
        return self._bfs(pname, up=True)

    def descendant_digests(self, pname: PName) -> List[str]:
        return self._bfs(pname, up=False)

    def _bfs(self, pname: PName, up: bool) -> List[str]:
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")
        step = self.graph.parents if up else self.graph.children
        seen: Set[str] = set()
        frontier = deque([pname])
        while frontier:
            node = frontier.popleft()
            self.operations += 1
            for neighbour in step(node):
                if neighbour.digest not in seen:
                    seen.add(neighbour.digest)
                    frontier.append(neighbour)
        return list(seen)


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

    def rebuild(self) -> None:
        # Rebuilding a cache means starting it cold; entries repopulate
        # on demand against the current graph.
        self._ancestor_cache.clear()
        self._descendant_cache.clear()

    def _cached(self, pname: PName, up: bool) -> Set[str]:
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")
        cache = self._ancestor_cache if up else self._descendant_cache
        hit = cache.get(pname.digest)
        if hit is not None:
            self.operations += 1
            return hit
        step = self.graph.parents if up else self.graph.children
        seen: Set[str] = set()
        frontier = deque([pname])
        while frontier:
            node = frontier.popleft()
            self.operations += 1
            for neighbour in step(node):
                if neighbour.digest not in seen:
                    seen.add(neighbour.digest)
                    frontier.append(neighbour)
        cache[pname.digest] = seen
        return seen

    def _on_edge(self, child: PName, parent: PName) -> None:
        # Invalidate ancestor sets of the child and everything below it,
        # and descendant sets of the parent and everything above it.
        stale_down = {child.digest} | {p.digest for p in self.graph.descendants(child)}
        stale_up = {parent.digest} | {p.digest for p in self.graph.ancestors(parent)}
        for digest in stale_down:
            self._ancestor_cache.pop(digest, None)
        for digest in stale_up:
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
    start.  Made over a populated one they are *pending* until the first
    ``ancestors`` / ``descendants`` / ``reachable`` / ``estimate_*`` call
    (or :meth:`rebuild`) builds them in one pass, once; ``index_stats()``
    reports which and never forces the build (``docs/LINEAGE.md``).
    """

    name = "labelled"
    fast_reachability = True

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        super().__init__(graph)
        self._ancestor_labels: Dict[str, Set[str]] = {}
        self._descendant_labels: Dict[str, Set[str]] = {}
        # Over a graph that arrives populated (a store opening over its
        # records) the labels are *pending*: writes reach the graph only,
        # and the first call that reads a label builds them all.  An open
        # that publishes and queries attributes never pays for them.
        self._pending = len(self.graph) > 0
        self.label_builds = 0

    def add_node(self, pname: PName) -> None:
        super().add_node(pname)
        if not self._pending:
            self._ancestor_labels.setdefault(pname.digest, set())
            self._descendant_labels.setdefault(pname.digest, set())

    def ancestor_digests(self, pname: PName) -> List[str]:
        return self._labels_of(pname, up=True)

    def descendant_digests(self, pname: PName) -> List[str]:
        return self._labels_of(pname, up=False)

    def _labels_of(self, pname: PName, up: bool) -> List[str]:
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")
        if self._pending:
            self._build_labels()
        self.operations += 1
        labels = self._ancestor_labels if up else self._descendant_labels
        # A copy: whatever a caller does with it, the label set stays as built.
        return list(labels.get(pname.digest, ()))

    def reachable(self, ancestor: PName, descendant: PName) -> bool:
        if descendant not in self.graph or ancestor not in self.graph:
            raise UnknownEntityError("unknown node in reachability query")
        if self._pending:
            self._build_labels()
        self.operations += 1
        return ancestor.digest in self._ancestor_labels.get(descendant.digest, set())

    def estimate_ancestors(self, pname: PName) -> int:
        if self._pending:
            self._build_labels()
        return len(self._ancestor_labels.get(pname.digest, ()))

    def estimate_descendants(self, pname: PName) -> int:
        if self._pending:
            self._build_labels()
        return len(self._descendant_labels.get(pname.digest, ()))

    def rebuild(self) -> None:
        """Drop every label set and build them now (also the pre-warm after an open)."""
        self._build_labels()

    def index_stats(self) -> dict:
        facts = super().index_stats()
        facts["label_entries"] = self._label_entries()
        facts["labels"] = "pending" if self._pending else "built"
        facts["label_builds"] = self.label_builds
        return facts

    def _label_entries(self) -> int:
        return sum(len(s) for s in self._ancestor_labels.values()) + sum(
            len(s) for s in self._descendant_labels.values()
        )

    def _build_labels(self) -> None:
        """Every label set, from the graph as it stands; the labels are current afterwards."""
        self._build_in_bulk()
        self._pending = False
        self.label_builds += 1

    def _label_every_node(self) -> None:
        # (on the graph's digest-level views: this is most of the cost)
        nodes = self.graph.node_digests()
        self._ancestor_labels = {digest: set() for digest in nodes}
        self._descendant_labels = {digest: set() for digest in nodes}
        for child in nodes:
            for parent in sorted(self.graph.parents_of(child)):
                self._propagate(child, parent)

    def _on_edge(self, child: PName, parent: PName) -> None:
        if self._pending:
            return
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


_STRATEGIES = {
    NaiveClosure.name: NaiveClosure,
    MemoizedClosure.name: MemoizedClosure,
    LabelledClosure.name: LabelledClosure,
}


def register_strategy(cls):
    """Register a :class:`ClosureStrategy` subclass under its ``name``.

    Usable as a class decorator; :mod:`repro.lineage` registers the
    ``interval`` engine this way so the core layer never has to import
    the lineage package at module load.
    """
    _STRATEGIES[cls.name] = cls
    return cls


def make_closure(name: str, graph: Optional[ProvenanceGraph] = None) -> ClosureStrategy:
    """Instantiate a closure strategy by name.

    Shipped names: ``naive`` / ``memoized`` / ``labelled`` / ``interval``
    (the last provided by :mod:`repro.lineage`, loaded on demand).
    """
    factory = _STRATEGIES.get(name)
    if factory is None:
        # The interval engine registers itself on import; load it lazily
        # here so repro.core never imports repro.lineage at module load
        # (the reverse import -- interval subclassing ClosureStrategy --
        # is the one that must be eager).
        import repro.lineage  # noqa: F401

        factory = _STRATEGIES.get(name)
    if factory is None:
        raise UnknownEntityError(
            f"unknown closure strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        )
    return factory(graph)
