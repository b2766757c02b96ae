"""Experiments over the local PASS: indexing granularity, naming, closure,
query suites, the PASS properties and provenance abstraction (E1-E4, E13, E14).

Each ``run_eN`` function is self-contained: it builds its workload,
measures, and returns an :class:`~repro.eval.result.ExperimentResult`.
Sizes are chosen so a single experiment completes in a few seconds;
``repro experiments`` and ``tests/eval/test_experiments.py`` call these
functions and check the shape of each claim.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.abstraction import AgentAbstractionRule, DepthAbstractionRule
from repro.core.attributes import Timestamp
from repro.core.closure import make_closure
from repro.core.naming import FilenameConvention, ProvenanceNaming
from repro.core.pass_store import PassStore
from repro.core.provenance import Agent, PName, ProvenanceRecord
from repro.core.query import AttributeEquals, DerivedFrom, Query
from repro.core.tupleset import TupleSet, TupleSetWindower
from repro.eval.criteria import precision_recall
from repro.eval.result import ExperimentResult
from repro.pipeline.operators import RollupOperator
from repro.pipeline.versioning import VersionedRepository
from repro.sensors.workloads import (
    MedicalWorkload,
    TrafficWorkload,
    VolcanoWorkload,
)

__all__ = ["run_e1", "run_e2", "run_e3", "run_e4", "run_e13", "run_e14"]


# ----------------------------------------------------------------------
# E1 -- indexing granularity: per tuple vs per tuple set
# ----------------------------------------------------------------------
def run_e1(hours: float = 2.0, stations: int = 6) -> ExperimentResult:
    """Section II: indexing every reading is infeasible; index tuple sets."""
    result = ExperimentResult(
        experiment_id="E1",
        title="Index granularity: per tuple vs per tuple set",
        claim=(
            "Indexing every sensor reading individually is infeasible due to the "
            "sheer number of readings; tuple sets are the right granularity."
        ),
        headers=[
            "window_seconds",
            "readings",
            "tuple_sets",
            "per_tuple_index_entries",
            "per_set_index_entries",
            "entry_ratio",
            "per_set_ingest_ms",
        ],
    )
    workload = TrafficWorkload(seed=11, stations_per_city=stations)
    network = workload.networks[0]
    readings = network.readings(workload.start, hours * 3600.0)

    for window_seconds in (60.0, 300.0, 1800.0):
        windower = TupleSetWindower(
            window_seconds=window_seconds,
            base_attributes={"network": network.name, "domain": "traffic"},
            agent=network.agent,
        )
        tuple_sets = windower.window(readings)
        attrs_per_set = (
            len(tuple_sets[0].provenance.attributes) if tuple_sets else 0
        )
        # Indexing each reading would need one posting per reading attribute
        # (plus identity); indexing tuple sets needs one per set attribute.
        per_tuple_entries = sum(len(reading.values) + 3 for reading in readings)
        per_set_entries = attrs_per_set * len(tuple_sets)

        store = PassStore()
        started = time.perf_counter()
        for tuple_set in tuple_sets:
            store.ingest(tuple_set)
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        ratio = per_tuple_entries / per_set_entries if per_set_entries else float("inf")
        result.add_row(
            window_seconds,
            len(readings),
            len(tuple_sets),
            per_tuple_entries,
            per_set_entries,
            round(ratio, 1),
            round(elapsed_ms, 2),
        )
    result.notes.append(
        "The per-tuple/per-set entry ratio grows with the window width; even at "
        "one-minute windows the per-set index is an order of magnitude smaller."
    )
    return result


# ----------------------------------------------------------------------
# E2 -- naming: conventional filenames vs structured provenance
# ----------------------------------------------------------------------
def run_e2(hours: float = 3.0) -> ExperimentResult:
    """Section II-A: flat filenames lose attributes and relationships."""
    result = ExperimentResult(
        experiment_id="E2",
        title="Naming schemes: conventional filenames vs provenance names",
        claim=(
            "Conventional self-describing filenames cannot express every attribute "
            "or any relationship between data sets; structured provenance can."
        ),
        headers=["query", "scheme", "answerable", "precision", "recall"],
    )
    workload = TrafficWorkload(seed=5, cities=("london", "boston"), stations_per_city=3)
    raw, derived = workload.all_sets(hours=hours)
    everything = raw + derived

    convention = FilenameConvention(["domain", "city", "window_start"])
    naming = ProvenanceNaming()
    filenames: Dict[str, ProvenanceRecord] = {}
    collisions = 0
    for tuple_set in everything:
        record = tuple_set.provenance
        naming.register(record)
        filename = convention.name(record)
        if filename in filenames:
            # Distinct data sets whose names collide: the convention cannot
            # tell them apart, so the later one silently shadows the earlier.
            collisions += 1
        filenames[filename] = record

    ground_store = PassStore()
    for tuple_set in everything:
        ground_store.ingest(tuple_set)

    def score(query_name, attribute, value, lineage_target: Optional[PName] = None):
        if lineage_target is None:
            truth = set(ground_store.query(AttributeEquals(attribute, value)))
        else:
            truth = set(ground_store.query(DerivedFrom(lineage_target)))
        # Structured provenance names.
        if lineage_target is None:
            structured = {PName(d) for d in naming.lookup(attribute, value)}
        else:
            related = set()
            frontier = [lineage_target.digest]
            while frontier:
                digest = frontier.pop()
                for other in naming.related(digest):
                    if other not in {p.digest for p in related}:
                        record = naming.resolve(other)
                        if any(a.digest == digest for a in record.ancestors):
                            related.add(PName(other))
                            frontier.append(other)
            structured = related
        p, r = precision_recall(structured, truth)
        result.add_row(query_name, "provenance", True, round(p, 3), round(r, 3))
        # Conventional filenames.
        if lineage_target is not None:
            result.add_row(query_name, "filename", False, 0.0, 0.0)
            return
        matches = convention.lookup(filenames, attribute, value)
        returned = {filenames[name].pname() for name in matches}
        answerable = convention.can_express(attribute)
        p, r = precision_recall(returned, truth)
        result.add_row(query_name, "filename", answerable, round(p, 3), round(r, 3))

    score("by city (encoded in filename)", "city", "london")
    score("by processing stage (not encoded)", "stage", "aggregated")
    score("by owner (not encoded)", "owner", "london-transport-authority")
    score("derived-from relationship", "", "", lineage_target=raw[0].pname)
    result.notes.append(
        "Filename lookups lose all recall on attributes outside the naming "
        "convention and cannot answer relationship queries at all."
    )
    result.notes.append(
        f"{collisions} of {len(everything)} data sets collided onto an existing "
        "filename (the convention cannot distinguish the derived products of the "
        "same city and window), so even encoded-attribute lookups lose recall."
    )
    return result


# ----------------------------------------------------------------------
# E3 -- transitive closure strategies
# ----------------------------------------------------------------------
def _build_chain_store(depth: int, fan_in: int = 4) -> PassStore:
    """A store holding `fan_in` raw sets rolled up repeatedly to `depth` levels."""
    workload = VolcanoWorkload(seed=3, stations=fan_in)
    raw = workload.tuple_sets(hours=1.0)[: fan_in]
    store = PassStore(closure="naive")
    for tuple_set in raw:
        store.ingest(tuple_set)
    current = raw
    for level in range(depth):
        rollup = RollupOperator(f"rollup-l{level}", version="1.0")
        merged = rollup.apply_many(current)
        store.ingest(merged)
        current = [merged]
    return store


def run_e3(depths: Sequence[int] = (4, 16, 64), fan_in: int = 4) -> ExperimentResult:
    """Section II-B: recursive queries need better support than per-query scans."""
    result = ExperimentResult(
        experiment_id="E3",
        title="Transitive closure strategies vs derivation depth",
        claim=(
            "Simple relational name-to-value schemes are not sufficient for "
            "recursive provenance queries; dedicated closure support is needed."
        ),
        headers=["depth", "strategy", "queries", "node_visits", "elapsed_ms"],
    )
    for depth in depths:
        base_store = _build_chain_store(depth, fan_in)
        pnames = base_store.pnames()
        for strategy_name in ("naive", "memoized", "labelled", "interval"):
            store = PassStore(closure=strategy_name)
            for pname in sorted(pnames, key=lambda p: p.digest):
                record = base_store.get_record(pname)
                store.ingest_record(record)
            store.closure.reset_counters()
            started = time.perf_counter()
            queries = 0
            for pname in pnames:
                store.ancestors(pname)
                queries += 1
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            result.add_row(
                depth,
                strategy_name,
                queries,
                store.closure.operations,
                round(elapsed_ms, 2),
            )
    result.notes.append(
        "Naive per-query BFS revisits the whole chain for every query; the "
        "labelled strategy answers from precomputed reachability sets."
    )
    return result


# ----------------------------------------------------------------------
# E4 -- the Section III query suites
# ----------------------------------------------------------------------
def run_e4() -> ExperimentResult:
    """Sections III-A/B/C: versioning, science and sensor queries on one PASS."""
    result = ExperimentResult(
        experiment_id="E4",
        title="Representative query suites on a local PASS",
        claim=(
            "Document versioning, scientific derivation and EMT sensor queries "
            "are all expressible over provenance and answerable by one store."
        ),
        headers=["suite", "query", "results", "needs_lineage", "elapsed_ms"],
    )

    # Versioning suite (Section III-A).
    repo = VersionedRepository(name="flight-software")
    t0 = Timestamp(0.0)
    repo.commit("main.c", ["int main() {", "  return 0;", "}"], "alice", t0, tags=("Release 1.0",))
    repo.commit("main.c", ["int main() {", "  init();", "  return 0;", "}"], "bob", t0 + 3600)
    repo.commit(
        "main.c",
        ["int main() {", "  init();", "  return run();", "}"],
        "alice",
        t0 + 7200,
        tags=("Release 1.1",),
    )
    repo.commit("util.c", ["void init() {}", "#define ERR_42 42"], "carol", t0 + 4000)
    repo.commit("util.c", ["void init() {}"], "dave", t0 + 9000)
    versioning_queries = {
        "file as of yesterday": lambda: repo.as_of("main.c", t0 + 4000),
        "changes since last week": lambda: repo.changes_since("main.c", t0 + 1800),
        "when was each line inserted": lambda: repo.blame("main.c"),
        "who removed the error code": lambda: repo.who_removed("util.c", "#define ERR_42 42"),
        "files tagged Release 1.1": lambda: repo.tagged("Release 1.1"),
        "full lineage of head": lambda: repo.revision_lineage("main.c"),
    }
    for name, thunk in versioning_queries.items():
        started = time.perf_counter()
        answer = thunk()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        count = len(answer) if isinstance(answer, (list, set, tuple)) else 1
        result.add_row("versioning", name, count, name == "full lineage of head", round(elapsed_ms, 3))

    # Science suite (Section III-B) using the volcano workload's derivations.
    volcano = VolcanoWorkload(seed=7, stations=8)
    raw, derived = volcano.all_sets(hours=6.0)
    science_store = PassStore()
    for tuple_set in raw + derived:
        science_store.ingest(tuple_set)
    event = derived[0].pname if derived else raw[0].pname
    science_queries = {
        "raw data this result derives from": (lambda: science_store.raw_sources(event), True),
        "everything needed to reproduce it": (lambda: science_store.ancestors(event), True),
        "all downstream (tainted) data": (lambda: science_store.descendants(raw[0].pname), True),
        "experiments from this instrument": (
            lambda: science_store.query(AttributeEquals("volcano", "reventador")),
            False,
        ),
    }
    for name, (thunk, needs_lineage) in science_queries.items():
        started = time.perf_counter()
        answer = thunk()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        result.add_row("science", name, len(answer), needs_lineage, round(elapsed_ms, 3))

    # Sensor / EMT suite (Section III-C).
    medical = MedicalWorkload(seed=9, patients=5)
    raw, derived = medical.all_sets(hours=0.5)
    medical_store = PassStore()
    for tuple_set in raw + derived:
        medical_store.ingest(tuple_set)
    for name, query in medical.query_suite().items():
        started = time.perf_counter()
        answer = medical_store.query(query)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        result.add_row("sensor/EMT", name, len(answer), query.requires_lineage, round(elapsed_ms, 3))

    result.notes.append(
        "Every query class from the three motivating domains runs against the "
        "same local PASS interface; only the lineage queries need closure support."
    )
    return result


# ----------------------------------------------------------------------
# E13 -- the four PASS properties under a removal storm
# ----------------------------------------------------------------------
def run_e13(hours: float = 2.0) -> ExperimentResult:
    """Section V: the four properties that distinguish a PASS."""
    result = ExperimentResult(
        experiment_id="E13",
        title="PASS properties under data removal",
        claim=(
            "Provenance is first class, queryable, unique per data set, and "
            "survives removal of ancestor objects."
        ),
        headers=["property", "checked", "violations"],
    )
    workload = TrafficWorkload(seed=13, stations_per_city=4)
    raw, derived = workload.all_sets(hours=hours)
    store = PassStore()
    for tuple_set in raw + derived:
        store.ingest(tuple_set)

    # P1/P2: provenance stored and queryable for every ingested set.
    queryable = 0
    for pname in store.pnames():
        record = store.get_record(pname)
        network = record.get("network")
        if network is None:
            # Nothing to query by; the record itself being retrievable is enough.
            queryable += 1
            continue
        hits = store.query(AttributeEquals("network", network))
        if pname in set(hits):
            queryable += 1
    result.add_row("P1/P2 first-class & queryable", len(store.pnames()), len(store.pnames()) - queryable)

    # P3: re-ingesting different data under identical provenance is refused.
    from repro.errors import DuplicateProvenanceError

    clash_attempts, clashes_refused = 0, 0
    for tuple_set in raw[:10]:
        if tuple_set.is_empty():
            continue
        clash_attempts += 1
        readings = tuple_set.readings[:-1]  # different data ...
        impostor = TupleSet(readings, tuple_set.provenance)  # ... same provenance
        try:
            store.ingest(impostor)
        except DuplicateProvenanceError:
            clashes_refused += 1
    result.add_row("P3 no identical provenance for different data", clash_attempts, clash_attempts - clashes_refused)

    # P4: remove every raw ancestor; derived data's lineage must stay intact.
    removed = 0
    for tuple_set in raw:
        store.remove_data(tuple_set.pname)
        removed += 1
    surviving = 0
    for tuple_set in derived:
        ancestors = store.ancestors(tuple_set.pname)
        if ancestors:
            surviving += 1
    violations = store.verify_invariants()
    result.add_row("P4 provenance survives ancestor removal", removed, len(violations))
    result.notes.append(
        f"After removing {removed} raw data sets, {surviving}/{len(derived)} derived "
        "sets still report complete ancestry."
    )
    return result


# ----------------------------------------------------------------------
# E14 -- provenance abstraction
# ----------------------------------------------------------------------
def run_e14(toolchain_depth: int = 12) -> ExperimentResult:
    """Section V: report 'gcc 3.3.3', not gcc's own change history."""
    result = ExperimentResult(
        experiment_id="E14",
        title="Provenance abstraction of tool lineage",
        claim=(
            "Deep tool provenance should be reported as an abstraction "
            "('gcc 3.3.3') rather than expanded in full."
        ),
        headers=["configuration", "full_lineage", "reported_entries", "hidden", "compression"],
    )
    store = PassStore()

    # The compiler's own deep change history.
    previous = None
    for revision in range(toolchain_depth):
        attributes = {
            "kind": "toolchain",
            "tool": "gcc",
            "tool_version": f"3.3.{revision}",
            "domain": "software",
        }
        record = (
            ProvenanceRecord(attributes)
            if previous is None
            else previous.derive(attributes)
        )
        store.ingest_record(record)
        previous = record
    compiler_record = previous

    # The analysis binary compiled by the toolchain, and the result it produced.
    binary = compiler_record.derive(
        {"kind": "binary", "name": "analyse-sightings", "domain": "software"},
        agent=Agent("compiler", "gcc", "3.3.3"),
    )
    store.ingest_record(binary)
    analysis = binary.derive(
        {"kind": "analysis-result", "domain": "traffic", "study": "zone-effects"},
        agent=Agent("program", "analyse-sightings", "1.0"),
    )
    store.ingest_record(analysis)
    focus = analysis.pname()

    plain = store.report_lineage(focus)
    result.add_row(
        "no abstraction",
        plain.full_size(),
        plain.reported_size(),
        plain.hidden_count,
        round(plain.compression_ratio(), 2),
    )

    store.add_abstraction_rule(AgentAbstractionRule(agent_kind="compiler"))
    abstracted = store.report_lineage(focus)
    result.add_row(
        "compiler agents abstracted",
        abstracted.full_size(),
        abstracted.reported_size(),
        abstracted.hidden_count,
        round(abstracted.compression_ratio(), 2),
    )

    store.add_abstraction_rule(DepthAbstractionRule(max_depth=1))
    shallow = store.report_lineage(focus)
    result.add_row(
        "compiler rule + depth 1",
        shallow.full_size(),
        shallow.reported_size(),
        shallow.hidden_count,
        round(shallow.compression_ratio(), 2),
    )
    result.notes.append(
        "The abstracted reports keep the analysis lineage visible while the "
        "compiler's own change history collapses to a single labelled entry."
    )
    return result
