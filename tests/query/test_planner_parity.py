"""Property test: planner answers == forced-full-scan answers, always.

The planner's safety argument has two halves.  An *inexact* access path
(a probe on an ``annotation:`` name) only generates candidates and the
executor re-tests each, so a wrong index costs time, never rows.  An
*exact* path (every other attribute probe, the temporal and spatial
probes, lineage closures) has its conjunct dropped from what is
re-tested, and when nothing is left the index hits **are** the answer:
no record is fetched, none re-tested.  There the index must agree with
the predicate entry for entry -- on typed equality, mixed-kind ordering
ties, closed window endpoints, a radius that exactly reaches a place,
removal marks -- and this suite is what says so.  It generates random
populations and random queries from every class Section III derives and
asserts the planned execution returns exactly what a forced full scan
returns, on ``memory://``, ``sqlite:///`` and a *reopened* ``sqlite:///``
whose indexes were adopted from the checkpoint.  Both go through
normalization, so each answer is also held to an oracle that shares no
code with the planner: the predicate as written, ``matches`` applied to
every stored record.

Example counts come from the active Hypothesis profile (CI runs this
file again under ``--hypothesis-profile=thorough``, ``tests/conftest.py``).
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import Annotation, PName, ProvenanceRecord
from repro.core.query import (
    AncestorOf,
    And,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    NearLocation,
    Not,
    Or,
    Query,
    TimeWindowOverlaps,
)
from repro.core.tupleset import TupleSet

CITIES = ("london", "boston", "paris", "oslo")
DOMAINS = ("traffic", "medical")
#: ``n`` takes values that tie under the range ordering (1, 1.0, True and
#: Timestamp(1.0) all sort as 1.0) yet differ under typed equality, plus
#: strings and lists, which no numeric range may admit
MIXED = (1, 1.0, True, Timestamp(1.0), 0, 2, 2.5, "1", "b", (1,), (1, 2), (1.0, "b"))
ANNOTATED = ("old", "new", 1, 1.0)
#: windows sit on a grid, so that query windows touch them at an endpoint
GRID = (0.0, 100.0, 200.0, 300.0)
#: sensors stay put: a handful of places, shared by many sets
PLACES = tuple(GeoPoint(lat, lon) for lat in (45.0, 45.3, 46.0) for lon in (0.0, 0.4))
#: an ancestor nobody ever stored: closures name it, answers must not
GHOST = ProvenanceRecord({"ghost": True}).pname()

# ----------------------------------------------------------------------
# Data strategies: a small population with attribute variety, optional
# windows/locations (so index membership differs from store membership),
# parent links for lineage predicates, annotations (a key annotated
# twice, a real attribute named like one) and removals.
# ----------------------------------------------------------------------
record_specs = st.lists(
    st.fixed_dictionaries(
        {
            "city": st.sampled_from(CITIES),
            "domain": st.sampled_from(DOMAINS),
            "seq": st.integers(min_value=0, max_value=40),
            "n": st.one_of(st.none(), st.sampled_from(MIXED)),
            "windowed": st.booleans(),
            "located": st.booleans(),
            "start": st.one_of(st.sampled_from(GRID), st.floats(min_value=0, max_value=3000, allow_nan=False)),
            "duration": st.one_of(st.just(100.0), st.floats(min_value=1, max_value=600, allow_nan=False)),
            "place": st.one_of(
                st.sampled_from(PLACES),
                st.builds(
                    GeoPoint,
                    st.floats(min_value=40, max_value=50, allow_nan=False),
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                ),
            ),
            "parent": st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
            "ghost_parent": st.booleans(),
            # a real attribute literally named like an annotation: it wins
            "annotation_attribute": st.one_of(st.none(), st.sampled_from(ANNOTATED)),
            "annotations": st.lists(st.sampled_from(ANNOTATED), max_size=2),
            "removed": st.booleans(),
            "republished": st.booleans(),
        }
    ),
    min_size=4,
    max_size=25,
)


def _build_records(specs):
    records = []
    for index, spec in enumerate(specs):
        attributes = {
            "city": spec["city"],
            "domain": spec["domain"],
            "seq": spec["seq"],
            "serial": index,  # keeps identical specs distinct (P3)
        }
        if spec["n"] is not None:
            attributes["n"] = spec["n"]
        if spec["annotation_attribute"] is not None:
            attributes["annotation:k"] = spec["annotation_attribute"]
        if spec["windowed"]:
            attributes["window_start"] = Timestamp(spec["start"])
            attributes["window_end"] = Timestamp(spec["start"] + spec["duration"])
        if spec["located"]:
            attributes["location"] = spec["place"]
        ancestors = (GHOST,) if spec["ghost_parent"] else ()
        if spec["parent"] is not None and records:
            ancestors += (records[spec["parent"] % len(records)].pname(),)
        records.append(ProvenanceRecord(attributes, ancestors=ancestors))
    return records


def _populate(store, specs):
    """Publish, annotate, remove and re-publish what ``specs`` says; returns the records."""
    records = _build_records(specs)
    store.ingest_many([TupleSet([], record) for record in records])
    for spec, record in zip(specs, records):
        for value in spec["annotations"]:
            store.annotate(record.pname(), Annotation("k", value))
        if spec["removed"]:
            store.remove_data(record.pname())
        if spec["republished"]:
            # (same provenance, same PName: nothing may move or double)
            store.ingest(TupleSet([], ProvenanceRecord(record.attributes, ancestors=record.ancestors)))
    return records


# ----------------------------------------------------------------------
# Predicate strategies: every Section III query class, composed with
# and/or/not up to depth 2.
# ----------------------------------------------------------------------
def _range_of(name, values):
    """Ranges over ``values``: closed, open and half-bounded (never unbounded)."""
    return st.builds(
        lambda low, high, include_low, include_high: AttributeRange(
            name, low, values[0] if low is None and high is None else high, include_low, include_high
        ),
        st.one_of(st.none(), st.sampled_from(values)),
        st.one_of(st.none(), st.sampled_from(values)),
        st.booleans(),
        st.booleans(),
    )


def _leaf_predicates():
    return st.one_of(
        st.builds(AttributeEquals, st.just("city"), st.sampled_from(CITIES)),
        st.builds(AttributeEquals, st.just("seq"), st.integers(0, 40)),
        st.builds(
            lambda low, span: AttributeRange("seq", low=low, high=low + span),
            st.integers(0, 40),
            st.integers(0, 15),
        ),
        st.builds(AttributeContains, st.just("city"), st.sampled_from(("on", "os", "zz"))),
        st.builds(
            lambda values: AttributeIn("city", tuple(values)),
            st.lists(st.sampled_from(CITIES), min_size=1, max_size=3),
        ),
        st.builds(AttributeExists, st.sampled_from(("location", "window_start", "seq", "n", "annotation:k"))),
        # mixed-kind ties and list values: equality, IN, range
        st.builds(AttributeEquals, st.just("n"), st.sampled_from(MIXED)),
        st.builds(
            lambda values: AttributeIn("n", tuple(values)),
            st.lists(st.sampled_from(MIXED), min_size=1, max_size=3),
        ),
        _range_of("n", MIXED),
        # annotations: the latest value of the key, unless an attribute of that name wins
        st.builds(AttributeEquals, st.just("annotation:k"), st.sampled_from(ANNOTATED)),
        st.builds(
            lambda values: AttributeIn("annotation:k", tuple(values)),
            st.lists(st.sampled_from(ANNOTATED), min_size=1, max_size=2),
        ),
        _range_of("annotation:k", ANNOTATED),
        # a radius that exactly reaches a place (or a random one)
        st.builds(
            lambda centre, reached, radius: NearLocation(
                "location", centre, centre.distance_km(reached) if radius is None else radius
            ),
            st.sampled_from(PLACES),
            st.sampled_from(PLACES),
            st.one_of(st.none(), st.floats(min_value=0, max_value=500, allow_nan=False)),
        ),
        # windows touching the grid's at an endpoint (or random ones)
        st.builds(
            lambda start, span: TimeWindowOverlaps(Timestamp(start), Timestamp(start + span)),
            st.one_of(st.sampled_from(GRID), st.floats(min_value=0, max_value=3000, allow_nan=False)),
            st.one_of(st.sampled_from((0.0, 100.0)), st.floats(min_value=1, max_value=900, allow_nan=False)),
        ),
        # Lineage: the index is resolved against the population at run time.
        st.builds(
            lambda index, up: ("lineage", index, up),
            st.integers(min_value=0, max_value=60),
            st.booleans(),
        ),
    )


def _combined(leaves):
    return st.one_of(
        leaves,
        st.builds(lambda parts: And(tuple(parts)), st.lists(leaves, min_size=2, max_size=3)),
        # (mostly an Or of exact branches: the union answers alone)
        st.builds(lambda parts: Or(tuple(parts)), st.lists(leaves, min_size=2, max_size=3)),
        st.builds(Not, leaves),
        st.builds(
            lambda a, b: And((a, Not(b))),
            leaves,
            leaves,
        ),
    )


predicates = _combined(_leaf_predicates())
#: ``limit`` rides with ``order_by`` only: unordered, a scan's first N
#: (insertion order) and a probe's first N (digest order) rightly differ
query_options = st.fixed_dictionaries(
    {
        "include_removed": st.booleans(),
        "order_by": st.sampled_from((None, None, "seq", "n", "annotation:k", "window_start")),
        "limit": st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    }
)


def _resolve(predicate, records):
    """Replace ('lineage', i, up) placeholders with real PNames."""
    if isinstance(predicate, tuple) and predicate and predicate[0] == "lineage":
        _, index, up = predicate
        target = records[index % len(records)].pname()
        return DerivedFrom(target) if up else AncestorOf(target)
    if isinstance(predicate, And):
        return And(tuple(_resolve(part, records) for part in predicate.parts))
    if isinstance(predicate, Or):
        return Or(tuple(_resolve(part, records) for part in predicate.parts))
    if isinstance(predicate, Not):
        return Not(_resolve(predicate.part, records))
    return predicate


def _assert_parity(store, predicate, options) -> None:
    ordered = options["order_by"] is not None
    query = Query(
        predicate,
        limit=options["limit"] if ordered else None,
        include_removed=options["include_removed"],
        order_by=options["order_by"],
    )
    planned, explain = store.query_explain(query)
    scanned, baseline = store.query_explain(query, force_full_scan=True)
    assert baseline.path_kind == "full-scan"
    where = f"planner ({explain.path}) and full scan disagree for {query!r}"
    if ordered:
        assert planned == scanned, where
    else:
        assert len(planned) == len(set(planned)), f"a name twice in {explain.path}"
        assert set(planned) == set(scanned), where
    assert GHOST.digest not in planned
    stored = {record_digest for record_digest in planned if PName(record_digest) in store}
    assert stored == set(planned), "an answer names a record the store does not hold"
    # a scan-free oracle: the predicate as written (not as normalized), record by record
    oracle = {
        pname.digest
        for pname, record in store.backend.iter_records()
        if predicate.matches(pname, record, store) and (query.include_removed or not store.is_removed(pname))
    }
    if query.limit is None:
        assert set(planned) == oracle, f"{explain.path} and the predicate's own matches disagree for {query!r}"
    else:
        assert set(planned) <= oracle and len(planned) == min(query.limit, len(oracle)), where


PARITY_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(specs=record_specs, predicate=predicates, options=query_options)
@PARITY_SETTINGS
def test_planner_matches_full_scan_in_memory(specs, predicate, options):
    with repro.connect("memory://") as client:
        records = _populate(client.store, specs)
        _assert_parity(client.store, _resolve(predicate, records), options)


@given(specs=record_specs, predicate=predicates, options=query_options)
@PARITY_SETTINGS
def test_planner_matches_full_scan_on_sqlite(specs, predicate, options):
    with tempfile.TemporaryDirectory() as directory:
        with repro.connect(f"sqlite:///{os.path.join(directory, 'pass.db')}") as client:
            records = _populate(client.store, specs)
            _assert_parity(client.store, _resolve(predicate, records), options)


@given(specs=record_specs, predicate=predicates, options=query_options)
@PARITY_SETTINGS
def test_planner_matches_full_scan_on_a_reopened_sqlite_store(specs, predicate, options):
    """The indexes a reopen adopts from the checkpoint answer alone as the live ones did."""
    with tempfile.TemporaryDirectory() as directory:
        url = f"sqlite:///{os.path.join(directory, 'pass.db')}"
        with repro.connect(url) as client:
            records = _populate(client.store, specs)
        with repro.connect(url) as client:
            assert client.stats()["storage"]["index_restore"]["mode"] == "adopted"
            _assert_parity(client.store, _resolve(predicate, records), options)


# ----------------------------------------------------------------------
# Count gates: what an index-only answer may and may not touch
# ----------------------------------------------------------------------
def _counted_store(client, sets=60):
    records = [
        ProvenanceRecord(
            {
                "domain": "traffic",
                "city": CITIES[index % 4],
                "seq": index,
                "window_start": Timestamp(index * 100.0),
                "window_end": Timestamp(index * 100.0 + 100.0),
                "location": PLACES[index % len(PLACES)],
            }
        )
        for index in range(sets)
    ]
    client.publish_many([TupleSet([], record) for record in records])
    return records


EXACT_QUERIES = (
    AttributeEquals("city", "paris"),
    AttributeIn("city", ("paris", "oslo")),
    AttributeRange("seq", low=10, high=30),
    AttributeExists("location"),
    TimeWindowOverlaps(Timestamp(500.0), Timestamp(1500.0)),
    NearLocation("location", PLACES[0], PLACES[0].distance_km(PLACES[1])),
    # (a range narrow enough to join the intersection; wider, it is a residual)
    And((AttributeEquals("city", "paris"), AttributeRange("seq", low=0, high=20))),
    Or((AttributeEquals("city", "paris"), AttributeEquals("seq", 3))),
)


def test_an_exact_probe_answers_a_page_without_reading_a_record(tmp_path):
    for url in ("memory://", f"sqlite:///{tmp_path / 'pass.db'}"):
        with repro.connect(url) as client:
            _counted_store(client)
            backend = client.store.backend
            for predicate in EXACT_QUERIES:
                scanned, _ = client.store.query_explain(predicate, force_full_scan=True)
                before = backend.stats.gets
                result = client.query(predicate, limit=20)
                assert backend.stats.gets == before, f"{predicate!r} read records on {url}"
                assert result.total == len(scanned) and result.explain.used_index
                assert set(result.records) <= {PName(digest) for digest in scanned}
                # rows_scanned is the candidates examined: here, the hits.
                assert result.cost.rows_scanned == result.explain.rows_scanned >= result.total


def test_query_records_reads_exactly_the_rows_it_returns(tmp_path):
    for url in ("memory://", f"sqlite:///{tmp_path / 'pass.db'}"):
        with repro.connect(url) as client:
            _counted_store(client)
            backend = client.store.backend
            for predicate in EXACT_QUERIES:
                before = backend.stats.gets
                rows = client.store.query_records(predicate)
                assert backend.stats.gets - before == len(rows) > 0
                assert all(predicate.matches(pname, record, client.store) for pname, record in rows)
                assert all(record.pname() == pname for pname, record in rows)


def test_rows_scanned_counts_every_candidate_examined():
    with repro.connect("memory://") as client:
        records = _counted_store(client)
        store = client.store
        # index-only: the bucket's entries
        explain = store.explain(AttributeEquals("city", "paris"))
        assert (explain.rows_scanned, explain.actual_rows) == (15, 15)
        # an intersection examines what survives it, not either input
        explain = store.explain(And((AttributeEquals("city", "paris"), AttributeRange("seq", low=0, high=19))))
        assert (explain.path_kind, explain.rows_scanned, explain.actual_rows) == ("index-intersection", 5, 5)
        # a residual: every candidate of the probe, matched or not
        explain = store.explain(And((AttributeEquals("city", "paris"), AttributeContains("domain", "zz"))))
        assert (explain.rows_scanned, explain.actual_rows) == (15, 0)
        # removed names were examined, then dropped
        store.remove_data(records[2].pname())  # a paris set
        before = store.stats.records_scanned
        explain = store.explain(Query(AttributeEquals("city", "paris"), include_removed=False))
        assert (explain.rows_scanned, explain.actual_rows) == (15, 14)
        assert store.stats.records_scanned - before == 15
        # an inexact probe: candidates fetched and re-tested
        store.annotate(records[0].pname(), Annotation("k", "old"))
        store.annotate(records[0].pname(), Annotation("k", "new"))
        gets = store.backend.stats.gets
        explain = store.explain(AttributeEquals("annotation:k", "old"))
        assert (explain.path_kind, explain.rows_scanned, explain.actual_rows) == ("attr-eq", 1, 0)
        assert store.backend.stats.gets - gets == 1


def test_a_dangling_ancestor_never_appears_in_an_answer():
    """A closure names it; the fetch lineage probes keep is what drops it."""
    with repro.connect("memory://") as client:
        child = ProvenanceRecord({"city": "paris"}, ancestors=(GHOST,))
        client.publish(TupleSet([], child))
        assert GHOST in client.store.ancestors(child.pname())
        assert client.query(AncestorOf(child.pname())).records == []
        assert client.query(AncestorOf(child.pname(), include_self=True)).records == [child.pname()]
        answer = client.query(Or((AncestorOf(child.pname()), AttributeEquals("city", "paris"))))
        assert answer.records == [child.pname()]


def test_constants_python_calls_equal_are_never_merged():
    """``1 == True == 1.0`` in Python; the store tells the three apart, and so must normalization."""
    one, true = AttributeEquals("n", 1), AttributeEquals("n", True)
    with repro.connect("memory://") as client:
        client.publish_many([TupleSet([], ProvenanceRecord({"n": n})) for n in (1, True, 1.0, 2)])
        assert client.query(And((one, true))).total == 0
        assert client.query(Or((one, true))).total == 2
        assert client.query(And((Not(one), Not(true)))).total == 2
