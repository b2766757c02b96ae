"""The interval/chain reachability index: scalable transitive closure.

The three :mod:`repro.core.closure` strategies trade one extreme for
another: ``naive`` re-walks the DAG per query, ``labelled`` materializes
full per-node ancestor/descendant *sets* -- O(V^2) memory on deep
lineage, which is what capped the store far below the millions-of-records
goal.  Production provenance stores (cf. the Software Heritage
provenance index) compress reachability instead; this module implements
that idea as a fourth :class:`~repro.core.closure.ClosureStrategy`.

Design
------
The DAG is decomposed into **chains**: paths ``c[0] -> c[1] -> ...``
where each ``c[i+1]`` is a direct child of ``c[i]`` (positions increase
downstream).  Every node then carries two compressed label maps:

* ``down[v][chain] = p`` -- the smallest position in ``chain`` occupied
  by a descendant-or-self of ``v``.  Because a chain is a real path,
  *everything at position >= p* in that chain is also reachable, so the
  descendant set of ``v`` is exactly the union of chain suffixes --
  enumeration is output-sensitive, and membership (``is_ancestor``) is
  one dict probe.
* ``up[v][chain] = p`` -- symmetric: the largest position occupied by an
  ancestor-or-self, making the ancestor set a union of chain prefixes.

Memory is O(V * k) worst case (k = number of chains) but the maps are
sparse: a node only carries entries for chains its closure touches.
Every node's labels name its own chain at its own position, and most
name nothing else (a node whose ancestors all sit on its own chain);
such a label is *implied* by ``chain_of`` and not stored.  One accessor,
:meth:`IntervalClosure._label`, hands out stored and implied labels
alike, and counting (``label_entries``, ``operations``) sees both.

Maintenance is **lazy**: edge insertions append to a dirty set; the
first query after a batch either merges the dirty edges incrementally
(min/max label propagation along the affected region) or, when the
batch is large relative to the graph, rebuilds the decomposition
outright.  Labels only tighten during incremental merges, so the
worklist converges and the ``operations`` counter stays monotone.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.closure import ClosureStrategy
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName
from repro.errors import UnknownEntityError

__all__ = ["IntervalClosure"]

#: dirty batches beyond this fraction of the graph trigger a full rebuild
_REBUILD_FRACTION = 0.25
#: ... but never rebuild for batches smaller than this (churny ingest)
_REBUILD_MIN_BATCH = 512


class IntervalClosure(ClosureStrategy):
    """Chain-decomposition reachability labelling with lazy maintenance."""

    name = "interval"

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        super().__init__(graph)
        #: digest -> (chain id, position within the chain)
        self._chain_of: Dict[str, Tuple[int, int]] = {}
        #: chain id -> node digests in upstream-to-downstream order
        self._chains: List[List[str]] = []
        #: digest -> {chain id: min position reachable downstream (incl. self)},
        #: stored only where it names more than the node's own chain
        self._down: Dict[str, Dict[int, int]] = {}
        #: digest -> {chain id: max position reachable upstream (incl. self)}, as ``_down``
        self._up: Dict[str, Dict[int, int]] = {}
        #: edges inserted since the labels were last made current
        self._dirty: List[Tuple[str, str]] = []
        self._built = False
        self.rebuilds = 0
        self.incremental_merges = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_edge(self, child: PName, parent: PName) -> None:
        self._dirty.append((child.digest, parent.digest))

    def rebuild(self) -> None:
        """Recompute chains and labels from scratch in O(V + E + labels), now."""
        self._build_in_bulk()
        self._dirty.clear()
        self._built = True
        self.rebuilds += 1

    def _ensure_current(self) -> None:
        """Bring the labelling up to date with the graph (lazily)."""
        if self._built and not self._dirty:
            return
        threshold = max(_REBUILD_MIN_BATCH, int(_REBUILD_FRACTION * max(1, len(self.graph))))
        if not self._built or len(self._dirty) > threshold:
            self.rebuild()
        else:
            self._apply_dirty()

    def _label_every_node(self) -> None:
        graph = self.graph
        order = graph.topological_order()
        self._chain_of = {}
        self._chains = []
        for digest in order:
            self._assign_chain(digest)
        chain_of, label_of = self._chain_of, self._label
        self._down = down = {}
        for digest in reversed(order):
            label = dict((chain_of[digest],))  # {own chain: own position}
            for child in graph.children_of(digest):
                self._merge_min(label, label_of(down, child))
            if len(label) > 1:
                down[digest] = label
        self._up = up = {}
        for digest in order:
            label = dict((chain_of[digest],))
            for parent in graph.parents_of(digest):
                self._merge_max(label, label_of(up, parent))
            if len(label) > 1:
                up[digest] = label

    def _assign_chain(self, digest: str) -> None:
        """Append ``digest`` to a chain whose tail is one of its parents, else open one."""
        for parent in sorted(self.graph.parents_of(digest)):
            assignment = self._chain_of.get(parent)
            if assignment is None:
                continue
            chain_id, position = assignment
            if position == len(self._chains[chain_id]) - 1:
                self._chains[chain_id].append(digest)
                self._chain_of[digest] = (chain_id, position + 1)
                self.operations += 1
                return
        chain_id = len(self._chains)
        self._chains.append([digest])
        self._chain_of[digest] = (chain_id, 0)
        self.operations += 1

    def _apply_dirty(self) -> None:
        """Fold a small batch of new edges into the existing labelling."""
        edges, self._dirty = self._dirty, []
        # 1. Chain positions for endpoints the decomposition has not seen,
        #    assigned parents-before-children (Kahn over the new subgraph).
        fresh = {d for edge in edges for d in edge if d not in self._chain_of}
        if fresh:
            in_degree = {
                digest: sum(1 for parent in self.graph.parents_of(digest) if parent in fresh)
                for digest in fresh
            }
            queue = deque(sorted(d for d, degree in in_degree.items() if degree == 0))
            while queue:
                digest = queue.popleft()
                self._assign_chain(digest)  # (its labels are implied until a merge widens them)
                for child in sorted(self.graph.children_of(digest)):
                    if child in in_degree:
                        in_degree[child] -= 1
                        if in_degree[child] == 0:
                            queue.append(child)
        # 2. Label propagation: each edge child->parent lets the parent (and
        #    its up-set) reach what the child reaches, and the child (and its
        #    down-set) inherit the parent's ancestry.  Labels only tighten,
        #    so the worklists converge.
        for child, parent in edges:
            self.incremental_merges += 1
            self._propagate(parent, self._label(self._down, child), self._down, up=True)
            self._propagate(child, self._label(self._up, parent), self._up, up=False)

    def _propagate(
        self,
        start: str,
        source: Dict[int, int],
        labels: Dict[str, Dict[int, int]],
        up: bool,
    ) -> None:
        merge = self._merge_min if up else self._merge_max
        step = self.graph.parents_of if up else self.graph.children_of
        # A merge that changes a label adds another chain to it (the own
        # entry never moves), so a changed label is always one to store.
        target = self._label(labels, start)
        if not merge(target, source):
            return
        labels[start] = target
        work = deque([start])
        while work:
            digest = work.popleft()
            current = labels[digest]
            for neighbour in step(digest):
                target = self._label(labels, neighbour)
                if merge(target, current):
                    labels[neighbour] = target
                    work.append(neighbour)

    def _merge_min(self, target: Dict[int, int], source: Dict[int, int]) -> bool:
        changed = False
        for chain, position in source.items():
            known = target.get(chain)
            if known is None or position < known:
                target[chain] = position
                changed = True
        self.operations += len(source)
        return changed

    def _merge_max(self, target: Dict[int, int], source: Dict[int, int]) -> bool:
        changed = False
        for chain, position in source.items():
            known = target.get(chain)
            if known is None or position > known:
                target[chain] = position
                changed = True
        self.operations += len(source)
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    # Chains share no node and a label map names a chain once: the
    # prefixes (suffixes) are disjoint, so concatenating lists each digest
    # once.  A node's own chain is among its labels at its own position,
    # where the slice stops short of (starts past) the focus.

    def ancestor_digests(self, pname: PName) -> List[str]:
        self._require(pname)
        self._ensure_current()
        self.operations += 1
        labels = self._label(self._up, pname.digest)
        if not labels:
            return []
        own_chain, _ = self._chain_of[pname.digest]
        found: List[str] = []
        for chain, last in labels.items():
            found += self._chains[chain][: last if chain == own_chain else last + 1]
        self.operations += len(found)
        return found

    def descendant_digests(self, pname: PName) -> List[str]:
        self._require(pname)
        self._ensure_current()
        self.operations += 1
        labels = self._label(self._down, pname.digest)
        if not labels:
            return []
        own_chain, _ = self._chain_of[pname.digest]
        found: List[str] = []
        for chain, first in labels.items():
            found += self._chains[chain][first + 1 if chain == own_chain else first :]
        self.operations += len(found)
        return found

    def reachable(self, ancestor: PName, descendant: PName) -> bool:
        if ancestor not in self.graph or descendant not in self.graph:
            raise UnknownEntityError("unknown node in reachability query")
        if ancestor.digest == descendant.digest:
            return False
        self._ensure_current()
        self.operations += 1
        target = self._chain_of.get(descendant.digest)
        labels = self._label(self._down, ancestor.digest)
        if target is None or labels is None:
            return False
        chain, position = target
        first = labels.get(chain)
        return first is not None and first <= position

    # ------------------------------------------------------------------
    # Planner estimates (exact, O(labels) each)
    # ------------------------------------------------------------------
    def estimate_ancestors(self, pname: PName) -> int:
        if pname not in self.graph:
            return 0
        self._ensure_current()
        labels = self._label(self._up, pname.digest)
        if not labels:
            return 0
        return sum(last + 1 for last in labels.values()) - 1  # minus self

    def estimate_descendants(self, pname: PName) -> int:
        if pname not in self.graph:
            return 0
        self._ensure_current()
        labels = self._label(self._down, pname.digest)
        if not labels:
            return 0
        return sum(len(self._chains[chain]) - first for chain, first in labels.items()) - 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def index_stats(self) -> dict:
        facts = super().index_stats()
        facts.update(
            {
                "built": self._built,
                "chains": len(self._chains),
                "label_entries": self._label_entries(),
                "dirty_edges": len(self._dirty),
                "rebuilds": self.rebuilds,
                "incremental_merges": self.incremental_merges,
            }
        )
        return facts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, pname: PName) -> None:
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown node {pname}")

    def _label(self, labels: Dict[str, Dict[int, int]], digest: str) -> Optional[Dict[int, int]]:
        """``digest``'s label in ``labels`` (``_down`` or ``_up``), stored or implied.

        An implied label is a new ``{own chain: own position}``, which the
        caller may widen and store; ``None`` for a node with no chain yet.
        """
        label = labels.get(digest)
        if label is None:
            own = self._chain_of.get(digest)
            if own is not None:
                label = dict((own,))
        return label

    def _label_entries(self) -> int:
        # (every node with a chain has one label each way: implied ones hold one entry)
        implied = 2 * len(self._chain_of) - len(self._down) - len(self._up)
        return implied + sum(map(len, self._down.values())) + sum(map(len, self._up.values()))

