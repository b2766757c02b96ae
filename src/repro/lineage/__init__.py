"""repro.lineage -- the scalable reachability (lineage) engine.

Section II-B of the paper: "the indexing structures in sensor data
storage systems must provide for ... efficient recursive or transitive
queries.  Simple relational or XML-based name-to-value schemes are not
sufficient."  This package is the engine that takes that requirement to
scale:

* :class:`~repro.lineage.interval.IntervalClosure` -- an interval/chain
  reachability index registered as the ``"interval"`` closure strategy
  (``connect("memory://?closure=interval")``): O(labels) membership,
  output-sensitive enumeration, O(V * k) memory instead of the labelled
  strategy's O(V^2) sets, maintained lazily from a dirty set and
  persisted as the ``closure`` section of the store's index checkpoint.
* :class:`~repro.lineage.stats.GraphStatistics` -- ingest-maintained
  depth-histogram / fan-out statistics the cost-based planner prices
  lineage probes with.
* The planner-facing access paths
  :class:`~repro.query.paths.LineageAncestorsProbe` and
  :class:`~repro.query.paths.LineageDescendantsProbe` (re-exported here;
  they live with the other physical operators in
  :mod:`repro.query.paths`), which turn ``Q.derived_from(x)`` /
  ``Q.ancestor_of(x)`` from full scans with per-record reachability
  tests into one closure enumeration -- on the local stores and on
  every per-site store inside the distributed architecture models.

See ``docs/LINEAGE.md`` for the index design, its maintenance
invariants, and guidance on choosing a closure strategy.
"""

from repro.lineage.interval import IntervalClosure
from repro.lineage.stats import GraphStatistics
from repro.query.paths import LineageAncestorsProbe, LineageDescendantsProbe

__all__ = [
    "GraphStatistics",
    "IntervalClosure",
    "LineageAncestorsProbe",
    "LineageDescendantsProbe",
]
