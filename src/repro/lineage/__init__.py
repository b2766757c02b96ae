"""repro.lineage -- the scalable reachability (lineage) engine.

Section II-B of the paper: "the indexing structures in sensor data
storage systems must provide for ... efficient recursive or transitive
queries.  Simple relational or XML-based name-to-value schemes are not
sufficient."  This package is the engine that takes that requirement to
scale:

* :class:`~repro.lineage.interval.IntervalClosure` -- an interval/chain
  reachability index, the ``"interval"`` closure strategy of
  :func:`~repro.core.closure.make_closure` and the closure every store
  runs: O(labels) membership,
  output-sensitive enumeration, O(V * k) memory instead of the labelled
  strategy's O(V^2) sets, maintained lazily from a dirty set and
  built on the first lineage read after an open (never checkpointed).
* The planner-facing access paths
  :class:`~repro.query.paths.LineageAncestorsProbe` and
  :class:`~repro.query.paths.LineageDescendantsProbe` (re-exported here;
  they live with the other physical operators in
  :mod:`repro.query.paths`), which turn ``Q.derived_from(x)`` /
  ``Q.ancestor_of(x)`` from full scans with per-record reachability
  tests into one closure enumeration -- on the local stores and on
  every per-site store inside the distributed architecture models.

See ``docs/LINEAGE.md`` for the index design, its maintenance
invariants, and why the other three strategies stay (experiment E3 and
the test oracles).
"""

from repro.lineage.interval import IntervalClosure
from repro.query.paths import LineageAncestorsProbe, LineageDescendantsProbe

__all__ = [
    "IntervalClosure",
    "LineageAncestorsProbe",
    "LineageDescendantsProbe",
]
