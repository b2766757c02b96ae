"""Provenance abstraction: collapsing lineage the user does not care about.

Section V of the paper: "sometimes one wants to abstract provenance
away.  For example, one probably wants to know what compiler compiled
the program that did a particular analysis step ... but for most
purposes, it is far more useful for this information to be reported as
'gcc 3.3.3' rather than as a detailed record of gcc's own provenance and
change history."

This module implements that idea as *abstraction rules* applied when
lineage is reported to a user:

* an :class:`AbstractionRule` decides, for a given provenance record,
  whether the lineage *behind* it should be summarised instead of
  expanded, and what the summary label is;
* :class:`AbstractionEngine` walks an ancestry DAG applying the rules,
  producing an :class:`AbstractedLineage` -- the nodes that remain
  expanded, plus summaries of the collapsed subtrees.

Experiment E14 measures how much reported lineage shrinks under the
rules while the "useful" nodes are all retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import UnknownEntityError

__all__ = [
    "AbstractionRule",
    "AttributeAbstractionRule",
    "AgentAbstractionRule",
    "DepthAbstractionRule",
    "AbstractedLineage",
    "AbstractionEngine",
]


class AbstractionRule:
    """Base class: decides whether to collapse the lineage behind a record."""

    def summarise(self, pname: PName, record: Optional[ProvenanceRecord]) -> Optional[str]:
        """Return a summary label to use instead of expanding this node's
        ancestors, or ``None`` to leave the node fully expanded."""
        raise NotImplementedError


@dataclass(frozen=True)
class AttributeAbstractionRule(AbstractionRule):
    """Collapse nodes whose attribute ``name`` equals ``value``.

    E.g. collapse everything with ``kind == "toolchain"`` and report it
    by its ``label_attribute`` (say, ``tool_version``).
    """

    name: str
    value: object
    label_attribute: Optional[str] = None

    def summarise(self, pname, record) -> Optional[str]:
        if record is None:
            return None
        if record.get(self.name) != self.value:
            return None
        if self.label_attribute is not None:
            label = record.get(self.label_attribute)
            if label is not None:
                return str(label)
        return f"{self.name}={self.value}"


@dataclass(frozen=True)
class AgentAbstractionRule(AbstractionRule):
    """Collapse nodes produced by agents of a given kind, reporting the agent.

    The canonical example: a record produced by ``Agent("compiler",
    "gcc", "3.3.3")`` is reported as the string ``"compiler gcc 3.3.3"``
    and its own lineage is hidden.
    """

    agent_kind: str

    def summarise(self, pname, record) -> Optional[str]:
        if record is None:
            return None
        for agent in record.agents:
            if agent.kind == self.agent_kind:
                return agent.describe()
        return None


@dataclass(frozen=True)
class DepthAbstractionRule(AbstractionRule):
    """Collapse everything deeper than ``max_depth`` generations back.

    Depth-based abstraction is what interactive lineage browsers do:
    expand a few levels, summarise the rest.  The engine applies this
    rule using the traversal depth it tracks, so :meth:`summarise` only
    carries the label.
    """

    max_depth: int
    label: str = "earlier history"

    def summarise(self, pname, record) -> Optional[str]:
        # Depth is not a property of the record; the engine consults
        # ``max_depth`` directly.  Returning None here keeps the rule
        # inert if it is (mis)used as a record-level rule.
        return None


@dataclass
class AbstractedLineage:
    """The result of reporting lineage under abstraction rules.

    Attributes
    ----------
    focus:
        The data set whose lineage was requested.
    expanded:
        PNames reported in full (the focus itself is not included).
    summaries:
        Mapping from a collapsed node's PName to its summary label.  The
        nodes *behind* a collapsed node are neither expanded nor listed.
    hidden_count:
        How many ancestor nodes were suppressed entirely (they sit behind
        a summarised node or beyond the depth limit).
    """

    focus: PName
    expanded: List[PName] = field(default_factory=list)
    summaries: Dict[PName, str] = field(default_factory=dict)
    hidden_count: int = 0

    def reported_size(self) -> int:
        """Number of lineage entries a user actually sees."""
        return len(self.expanded) + len(self.summaries)

    def full_size(self) -> int:
        """Number of lineage entries that exist (reported + hidden)."""
        return self.reported_size() + self.hidden_count

    def compression_ratio(self) -> float:
        """full_size / reported_size (1.0 = nothing was abstracted away)."""
        reported = self.reported_size()
        if reported == 0:
            return 1.0
        return self.full_size() / reported


class AbstractionEngine:
    """Applies abstraction rules while walking an ancestry DAG."""

    def __init__(
        self,
        graph: ProvenanceGraph,
        resolver: Callable[[PName], Optional[ProvenanceRecord]],
        rules: Sequence[AbstractionRule] = (),
    ) -> None:
        self._graph = graph
        self._resolver = resolver
        self._rules = list(rules)

    def report(self, focus: PName, max_depth: Optional[int] = None) -> AbstractedLineage:
        """Produce the abstracted ancestry report for ``focus``.

        The walk proceeds upward from ``focus``.  At each node the rules
        are consulted: the first rule returning a summary collapses the
        node (it appears once, labelled, and its own ancestors are
        hidden).  ``max_depth`` additionally collapses anything deeper,
        counting it into ``hidden_count``.
        """
        if focus not in self._graph:
            raise UnknownEntityError(f"unknown node {focus}")
        depth_limit = max_depth
        for rule in self._rules:
            if isinstance(rule, DepthAbstractionRule):
                if depth_limit is None or rule.max_depth < depth_limit:
                    depth_limit = rule.max_depth

        result = AbstractedLineage(focus=focus)
        graph = self._graph
        visited: Set[str] = {focus.digest}
        # (parents in digest order, popped last-first: the report's order)
        frontier: List[tuple] = [(parent, 1) for parent in sorted(graph.parents_of(focus.digest))]
        while frontier:
            digest, depth = frontier.pop()
            if digest in visited:
                continue
            visited.add(digest)

            if depth_limit is not None and depth > depth_limit:
                # It and everything above it are hidden.
                result.hidden_count += 1 + self._hide_ancestors(digest, visited)
                continue

            pname = graph.name_of(digest)
            summary = self._first_summary(pname, self._resolver(pname))
            if summary is not None:
                result.summaries[pname] = summary
                result.hidden_count += self._hide_ancestors(digest, visited)
                continue

            result.expanded.append(pname)
            frontier.extend((parent, depth + 1) for parent in sorted(graph.parents_of(digest)))
        return result

    def _hide_ancestors(self, digest: str, visited: Set[str]) -> int:
        """Mark the ancestors of ``digest`` not yet visited as visited; how many there were."""
        hidden = self._graph.walk(digest, up=True) - visited
        visited |= hidden
        return len(hidden)

    def _first_summary(self, pname: PName, record: Optional[ProvenanceRecord]) -> Optional[str]:
        for rule in self._rules:
            summary = rule.summarise(pname, record)
            if summary is not None:
                return summary
        return None
