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

Maintenance is **lazy**: edge insertions append to a dirty set; the
first query after a batch either merges the dirty edges incrementally
(min/max label propagation along the affected region) or, when the
batch is large relative to the graph, rebuilds the decomposition
outright.  Labels only tighten during incremental merges, so the
worklist converges and the ``operations`` counter stays monotone.

The index is also **persistable**: :meth:`snapshot` emits the chains and
labels together with the graph's structural fingerprint, and
:meth:`restore` refuses anything that does not match byte-for-byte --
the versioned rebuild fallback the SQLite backend relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.closure import ClosureStrategy, register_strategy
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName
from repro.errors import UnknownEntityError

__all__ = ["IntervalClosure"]

#: bump when the snapshot layout changes; restore() refuses other versions
_SNAPSHOT_FORMAT = 1
#: dirty batches beyond this fraction of the graph trigger a full rebuild
_REBUILD_FRACTION = 0.25
#: ... but never rebuild for batches smaller than this (churny ingest)
_REBUILD_MIN_BATCH = 512


@register_strategy
class IntervalClosure(ClosureStrategy):
    """Chain-decomposition reachability labelling with lazy maintenance."""

    name = "interval"
    fast_reachability = True

    def __init__(self, graph: Optional[ProvenanceGraph] = None) -> None:
        super().__init__(graph)
        #: digest -> (chain id, position within the chain)
        self._chain_of: Dict[str, Tuple[int, int]] = {}
        #: chain id -> node digests in upstream-to-downstream order
        self._chains: List[List[str]] = []
        #: digest -> {chain id: min position reachable downstream (incl. self)}
        self._down: Dict[str, Dict[int, int]] = {}
        #: digest -> {chain id: max position reachable upstream (incl. self)}
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
        """Force a full recompute of chains and interval labels now."""
        self._rebuild()

    def _ensure_current(self) -> None:
        """Bring the labelling up to date with the graph (lazily)."""
        if self._built and not self._dirty:
            return
        threshold = max(_REBUILD_MIN_BATCH, int(_REBUILD_FRACTION * max(1, len(self.graph))))
        if not self._built or len(self._dirty) > threshold:
            self._rebuild()
        else:
            self._apply_dirty()

    def _rebuild(self) -> None:
        """Recompute chains and labels from scratch in O(V + E + labels)."""
        graph = self.graph
        order = [pname.digest for pname in graph.topological_order()]
        self._chain_of = {}
        self._chains = []
        for digest in order:
            self._assign_chain(digest)
        self._down = {}
        for digest in reversed(order):
            label = dict((self._chain_of[digest],))  # {own chain: own position}
            for child in graph.children_of(digest):
                self._merge_min(label, self._down[child])
            self._down[digest] = label
        self._up = {}
        for digest in order:
            label = dict((self._chain_of[digest],))
            for parent in graph.parents_of(digest):
                self._merge_max(label, self._up[parent])
            self._up[digest] = label
        self._dirty.clear()
        self._built = True
        self.rebuilds += 1

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
                self._assign_chain(digest)
                self._down[digest] = dict((self._chain_of[digest],))
                self._up[digest] = dict((self._chain_of[digest],))
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
            self._propagate(parent, self._down[child], self._down, up=True)
            self._propagate(child, self._up[parent], self._up, up=False)

    def _propagate(
        self,
        start: str,
        source: Dict[int, int],
        labels: Dict[str, Dict[int, int]],
        up: bool,
    ) -> None:
        merge = self._merge_min if up else self._merge_max
        step = self.graph.parents_of if up else self.graph.children_of
        if not merge(labels[start], source):
            return
        work = deque([start])
        while work:
            digest = work.popleft()
            current = labels[digest]
            for neighbour in step(digest):
                if merge(labels[neighbour], current):
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
        labels = self._up.get(pname.digest)
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
        labels = self._down.get(pname.digest)
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
        labels = self._down.get(ancestor.digest)
        if target is None or labels is None:
            return False
        chain, position = target
        first = labels.get(chain)
        return first is not None and first <= position

    # ------------------------------------------------------------------
    # Planner estimates (exact, O(labels) each)
    # ------------------------------------------------------------------
    def estimate_ancestors(self, pname: PName) -> Optional[int]:
        if pname not in self.graph:
            return 0
        self._ensure_current()
        labels = self._up.get(pname.digest)
        if not labels:
            return 0
        return sum(last + 1 for last in labels.values()) - 1  # minus self

    def estimate_descendants(self, pname: PName) -> Optional[int]:
        if pname not in self.graph:
            return 0
        self._ensure_current()
        labels = self._down.get(pname.digest)
        if not labels:
            return 0
        return sum(len(self._chains[chain]) - first for chain, first in labels.items()) - 1

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def has_snapshot(self) -> bool:
        return self._built

    def snapshot(self, fingerprint: Dict[str, int]) -> Optional[dict]:
        if not self._built:
            # Nothing has forced a labelling yet (no lineage query ran);
            # persisting would mean building one just to write it out.
            # The next open rebuilds lazily anyway -- skip.
            return None
        self._ensure_current()
        return {
            "format": _SNAPSHOT_FORMAT,
            "strategy": self.name,
            "fingerprint": dict(fingerprint),
            "chains": [list(chain) for chain in self._chains],
            # JSON objects key on strings; labels travel as [chain, pos] pairs
            "down": {d: sorted(label.items()) for d, label in self._down.items()},
            "up": {d: sorted(label.items()) for d, label in self._up.items()},
        }

    def restore(self, state: dict, fingerprint: Dict[str, int]) -> bool:
        try:
            if state.get("format") != _SNAPSHOT_FORMAT or state.get("strategy") != self.name:
                return False
            if dict(state["fingerprint"]) != dict(fingerprint):
                return False
            chains = [list(chain) for chain in state["chains"]]
            down = {
                digest: {int(chain): int(pos) for chain, pos in pairs}
                for digest, pairs in state["down"].items()
            }
            up = {
                digest: {int(chain): int(pos) for chain, pos in pairs}
                for digest, pairs in state["up"].items()
            }
        except (KeyError, TypeError, ValueError):
            return False
        self._chains = chains
        self._chain_of = {
            digest: (chain_id, position)
            for chain_id, chain in enumerate(chains)
            for position, digest in enumerate(chain)
        }
        self._down = down
        self._up = up
        self._dirty.clear()
        self._built = True
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def index_stats(self) -> dict:
        facts = super().index_stats()
        facts.update(
            {
                "built": self._built,
                "chains": len(self._chains),
                "label_entries": sum(len(v) for v in self._down.values())
                + sum(len(v) for v in self._up.values()),
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
