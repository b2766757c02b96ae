"""repro.query -- the cost-based query planner and execution subsystem.

Section III of the paper derives the query classes a provenance-aware
sensor store must serve: time-window, geographic-radius, attribute and
lineage queries.  The store maintains temporal, spatial and attribute
indexes on every ingest; this package is what finally puts them all on
the read path:

* :mod:`repro.query.normalize` -- predicate canonicalization and the
  value-free shape keys explain output reports,
* :mod:`repro.query.paths` -- the physical access paths (index probes,
  scans, intersections, unions),
* :mod:`repro.query.planner` -- the cost-based path choice, made per query,
* :mod:`repro.query.feedback` -- the hot-key result cache,
* :mod:`repro.query.executor` -- execution, honest accounting and
  :class:`~repro.query.explain.Explain` output.

:class:`~repro.core.pass_store.PassStore` owns one
:class:`~repro.query.planner.QueryPlanner` and routes ``query`` /
``query_records`` / ``explain`` through it, so every architecture model
(they all bottom out in per-site PassStores) plans per site for free.
"""

from repro.query.executor import execute
from repro.query.explain import Explain
from repro.query.normalize import normalize, shape_key
from repro.query.paths import (
    AccessPath,
    EqualityProbe,
    ExistsProbe,
    FullScanPath,
    IndexIntersection,
    IndexUnion,
    MultiProbe,
    RangeProbe,
    SpatialRadiusProbe,
    TemporalOverlapProbe,
)
from repro.query.planner import Plan, QueryPlanner

__all__ = [
    "AccessPath",
    "EqualityProbe",
    "ExistsProbe",
    "Explain",
    "FullScanPath",
    "IndexIntersection",
    "IndexUnion",
    "MultiProbe",
    "Plan",
    "QueryPlanner",
    "RangeProbe",
    "SpatialRadiusProbe",
    "TemporalOverlapProbe",
    "execute",
    "normalize",
    "shape_key",
]
