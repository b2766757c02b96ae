"""The executor: run a plan, account for it honestly, explain it.

The executor is the one place index hits become an answer, which gives
it two jobs beyond producing names:

* **accounting** -- each index probe bumps ``index_hits`` exactly once,
  every candidate examined for the answer (an index entry, or a record
  a scan read) bumps ``records_scanned``, and full scans are counted
  separately, so ``client.stats()`` reports what actually happened; the
  records actually fetched show in the backend's ``gets``;
* **explanation** -- every execution yields an
  :class:`~repro.query.explain.Explain` comparing the planner's estimate
  with the rows actually scanned and matched.

Names travel as digest strings, the form the indexes, the graph and the
backends are keyed by; a record that must be fetched is asked for by the
graph's own ``PName`` of its node (``graph.name_of``), as the readers of
:func:`execute` name what they return.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.provenance import ProvenanceRecord
from repro.core.query import TRUE, Query
from repro.obs import trace
from repro.query.explain import Explain
from repro.query.paths import FullScanPath

__all__ = ["execute"]


def execute(
    store, query: Query, force_full_scan: bool = False
) -> Tuple[List[str], Dict[str, ProvenanceRecord], Explain]:
    """Plan and run ``query`` against ``store``.

    Returns the matching digests (ordered and limited per the query's
    options), the records the run happened to fetch for them (by digest;
    none when the index answered alone or the result cache did) and the
    :class:`Explain` of what ran.
    """
    started = time.perf_counter()
    # One span covers plan + probe/scan + fetch + evaluate: the phase
    # facts ride as attrs (Explain carries the full breakdown), keeping
    # the traced read path at a single span per executor run -- the
    # per-phase spans measurably taxed hot queries.
    with trace.span("query.execute", attrs={"site": store.site}) as op_span:
        feedback = getattr(store, "feedback", None)
        result_key = None
        if feedback is not None and not force_full_scan:
            # Hot-key result cache: exact repeats (same shape, same
            # constants, same options) skip planning and execution
            # entirely.  Entries are invalidated precisely from the
            # post-commit ingest hook, so a hit is always current.
            result_key = feedback.result_key(query)
            if result_key is not None:
                cached = feedback.cached_result(result_key)
                if cached is not None:
                    op_span.set_attr("path", "result-cache")
                    op_span.set_attr("rows", len(cached))
                    explain = Explain(
                        site=store.site,
                        path="hot-key result cache",
                        path_kind="result-cache",
                        estimated_rows=len(cached),
                        actual_rows=len(cached),
                        rows_scanned=0,
                        duration_ms=(time.perf_counter() - started) * 1000.0,
                        cache_hit=True,
                        used_index=True,
                        shape=result_key.shape,
                        adapted="hot-key: served from result cache",
                    )
                    return list(cached), {}, explain
        plan = store.planner.plan(query, force_full_scan=force_full_scan, key=result_key)
        # (a live view of the removal marks every stored record's node carries)
        removed = () if query.include_removed else store.graph.removed_digests()
        full_scan = isinstance(plan.path, FullScanPath)
        if full_scan:
            # scan_all is the backend's bulk-read entry point: sharded
            # backends fan the scan out across shards concurrently and
            # merge in digest order.
            candidates = store.backend.scan_all()
            store.stats.full_scans += 1
            rows_scanned = len(candidates)
            if removed:
                candidates = [pair for pair in candidates if pair[0].digest not in removed]
        else:
            hits = plan.path.probe(store)
            store.stats.index_hits += plan.path.probes_run()
            rows_scanned = len(hits)
            # Digest order keeps index-served answers deterministic across
            # backends and runs (sets have no stable iteration order).
            names = sorted(hits)
            if removed:
                names = [digest for digest in names if digest not in removed]
            if plan.residual is TRUE and plan.path.index_only and query.order_by is None:
                # Nothing to re-test, nothing to sort by: the hits *are*
                # the answer, and no record is read for it.
                candidates = None
            else:
                # The bulk fetch keeps durable backends at one statement
                # per chunk instead of one per candidate; a name the store
                # holds no record for (a closure can yield one) drops out.
                candidates = store.backend.get_records(list(map(store.graph.name_of, names)))
        store.stats.records_scanned += rows_scanned

        fetched: Dict[str, ProvenanceRecord] = {}
        if candidates is None:
            digests = names if query.limit is None else names[: query.limit]
        else:
            # The residual drops conjuncts the path answered exactly; the
            # ordering and limit options still apply in full.
            if plan.residual is not TRUE:
                matches = plan.residual.matches
                candidates = [pair for pair in candidates if matches(pair[0], pair[1], store)]
            for pname, record in query.arrange(candidates):
                fetched[pname.digest] = record
            digests = list(fetched)
        op_span.set_attr("path", plan.path.kind)
        op_span.set_attr("rows_scanned", rows_scanned)
        op_span.set_attr("rows", len(digests))
        if result_key is not None:
            feedback.maybe_admit(result_key, digests, rows_scanned)
    explain = Explain(
        site=store.site,
        path=plan.path.describe(),
        path_kind=plan.path.kind,
        estimated_rows=plan.estimated_rows,
        actual_rows=len(digests),
        rows_scanned=rows_scanned,
        duration_ms=(time.perf_counter() - started) * 1000.0,
        used_index=not full_scan,
        shape=plan.shape,
    )
    return digests, fetched, explain
