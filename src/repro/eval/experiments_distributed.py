"""Experiments over the distributed architecture models (E5-E12).

These regenerate the Section IV design-space discussion quantitatively:
each architecture model is driven with the same synthetic sensor
workload over the same simulated topology, and its behaviour on the
criterion the paper singles out for it is measured.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.attributes import Timestamp
from repro.core.pass_store import PassStore
from repro.core.provenance import PName
from repro.core.query import And, AttributeEquals, AttributeRange, Query
from repro.distributed import (
    CentralizedWarehouse,
    DistributedHashTable,
    LocaleAwarePass,
    SoftStateIndex,
)
from repro.errors import CrashInjectedError, UnsupportedQueryError
from repro.eval.criteria import CriteriaScores, LatencySample, mean, precision_recall
from repro.eval.result import ExperimentResult
from repro.eval.scenario import (
    MODEL_NAMES,
    build_all_models,
    ground_truth_store,
    origin_site_for,
    publish_all,
    standard_topology,
)
from repro.sensors.workloads import TrafficWorkload, WeatherWorkload
from repro.storage.sqlite import SQLiteBackend
from repro.storage.wal import WriteAheadLog

__all__ = [
    "run_e5",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
]


def _traffic_sets(cities=("london", "boston"), hours=2.0, stations=3, seed=21):
    workload = TrafficWorkload(seed=seed, cities=cities, stations_per_city=stations)
    raw, derived = workload.all_sets(hours=hours)
    return workload, raw, derived


# ----------------------------------------------------------------------
# E5 -- the centralized warehouse: fast but saturates; links can dangle
# ----------------------------------------------------------------------
def run_e5(hours: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E5",
        title="Centralized warehouse: update saturation and index/data decoupling",
        claim=(
            "A central index offers speed and simplicity but may not scale to the "
            "sensor update volume, and loosely coupled index links can break."
        ),
        headers=["measure", "setting", "value"],
    )
    topology = standard_topology()
    _, raw, derived = _traffic_sets(hours=hours)
    everything = raw + derived

    # Saturation sweep: publish latency as the offered update rate grows.
    for offered_rate in (500.0, 2000.0, 8000.0, 32000.0):
        model = CentralizedWarehouse(topology, warehouse_site="warehouse")
        model.set_offered_update_rate(offered_rate)
        samples = publish_all(model, everything, topology)
        latency = mean([sample[2] for sample in samples])
        result.add_row("publish latency (ms)", f"offered {int(offered_rate)}/s", round(latency, 2))

    # Query speed at the warehouse (the model's strength).
    model = CentralizedWarehouse(topology, warehouse_site="warehouse")
    publish_all(model, everything, topology)
    query = Query(AttributeEquals("city", "london"))
    answer = model.query(query, "london-site")
    result.add_row("query latency (ms)", "city=london from london", round(answer.latency_ms, 2))
    lineage = model.descendants(raw[0].pname, "london-site")
    result.add_row("closure latency (ms)", "descendants of one window", round(lineage.latency_ms, 2))

    # Index/data decoupling: break links and count dangling lookups.
    for fraction in (0.0, 0.05, 0.2):
        fresh = CentralizedWarehouse(topology, warehouse_site="warehouse")
        publish_all(fresh, everything, topology)
        fresh.break_links(fraction, rng=random.Random(4))
        dangling = 0
        probes = everything[:40]
        for tuple_set in probes:
            located = fresh.locate(tuple_set.pname, "boston-site")
            if "dangling link" in located.notes:
                dangling += 1
        result.add_row(
            "dangling locate answers", f"{int(fraction * 100)}% links broken", f"{dangling}/{len(probes)}"
        )
    result.notes.append(
        "Latency is flat until the offered update rate passes warehouse capacity "
        "(2000/s), then grows with the backlog; broken links surface directly as "
        "dangling locate answers because the index is only loosely coupled to the data."
    )
    return result


# ----------------------------------------------------------------------
# E6 -- distributed and federated databases on recursive queries
# ----------------------------------------------------------------------
def run_e6(hours: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E6",
        title="Distributed and federated databases: recursive query cost",
        claim=(
            "Distributed databases have limited ability to process recursive "
            "queries; federated access is slower because components are disjoint."
        ),
        headers=["model", "operation", "latency_ms", "messages", "closure_rounds"],
    )
    topology = standard_topology()
    models = build_all_models(topology)
    _, raw, derived = _traffic_sets(hours=hours)
    everything = raw + derived
    deepest = derived[-1] if derived else raw[-1]

    for name in ("centralized", "distributed-db", "federated"):
        model = models[name]
        publish_all(model, everything, topology)
        query = Query(AttributeEquals("city", "london"))
        attribute = model.query(query, "london-site")
        result.add_row(name, "attribute query", round(attribute.latency_ms, 2), attribute.messages, "-")
        closure = model.ancestors(deepest.pname, "london-site")
        rounds = next(
            (note.split(":")[1].strip() for note in closure.notes if note.startswith("closure rounds")),
            "-",
        )
        result.add_row(name, "ancestor closure", round(closure.latency_ms, 2), closure.messages, rounds)
    result.notes.append(
        "Both database models pay one wide-area round per generation of ancestry; "
        "the federated model additionally pays per-site translation overhead and "
        "must ask every autonomous site at every step."
    )
    return result


# ----------------------------------------------------------------------
# E7 -- soft state: refresh interval vs precision/recall
# ----------------------------------------------------------------------
def run_e7(
    refresh_intervals: Sequence[float] = (60.0, 300.0, 1800.0),
    hours: float = 2.0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E7",
        title="Soft-state index: staleness vs result quality",
        claim=(
            "Soft-state metadata services scale by relying on periodic updates, "
            "at the cost of stale answers; their metadata model denies transitive closure."
        ),
        headers=["refresh_interval_s", "recall", "precision", "pending_updates", "closure_supported"],
    )
    topology = standard_topology()
    workload, raw, derived = _traffic_sets(hours=hours)
    everything = raw + derived
    truth_store = ground_truth_store(everything)
    query = Query(AttributeEquals("domain", "traffic"))
    truth = set(truth_store.query(query))

    for interval in refresh_intervals:
        models = build_all_models(topology, refresh_interval_seconds=interval)
        model = models["soft-state"]
        assert isinstance(model, SoftStateIndex)
        # Publish in (simulated) real time: each window appears at its end time.
        ordered = sorted(
            everything,
            key=lambda ts: getattr(ts.provenance.get("window_end"), "seconds", 0.0),
        )
        clock = 0.0
        for tuple_set in ordered:
            end = tuple_set.provenance.get("window_end")
            when = end.seconds if isinstance(end, Timestamp) else clock
            if when > clock:
                model.advance_time(when - clock)
                clock = when
            model.publish(tuple_set, origin_site_for(tuple_set, topology))
        # Remove a handful of already-indexed data sets; until the next refresh
        # the zone indexes keep advertising them (stale positives).
        midpoint = len(ordered) // 2
        removed = [ts.pname for ts in ordered[midpoint : midpoint + 5]]
        for pname in removed:
            model.remove(pname)

        answer = set(model.query(query, "london-site").pnames)
        effective_truth = truth - set(removed)
        precision, recall = precision_recall(answer, effective_truth)
        try:
            model.ancestors(ordered[-1].pname, "london-site")
            closure_supported = True
        except UnsupportedQueryError:
            closure_supported = False
        result.add_row(
            interval,
            round(recall, 3),
            round(precision, 3),
            model.pending_count(),
            closure_supported,
        )
    result.notes.append(
        "Longer refresh intervals leave more recently published windows invisible "
        "(lower recall); removed data sets keep being advertised until the next "
        "refresh (precision below 1); and the metadata model refuses closure queries."
    )
    return result


# ----------------------------------------------------------------------
# E8 -- hierarchical namespaces and the significance-ordering penalty
# ----------------------------------------------------------------------
def run_e8(hours: float = 1.5) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E8",
        title="Hierarchical namespace: primary vs non-primary attribute queries",
        claim=(
            "Hierarchies need a significance ordering; querying on any attribute "
            "other than the most significant one touches every server."
        ),
        headers=["query_attribute", "servers_contacted", "latency_ms", "messages", "results"],
    )
    topology = standard_topology()
    models = build_all_models(topology, significance_order=("city", "domain", "window_start"))
    model = models["hierarchical"]
    _, raw, derived = _traffic_sets(cities=("london", "boston", "seattle"), hours=hours)
    everything = raw + derived
    publish_all(model, everything, topology)

    queries = {
        "city (primary)": Query(AttributeEquals("city", "london")),
        "domain (secondary)": Query(AttributeEquals("domain", "traffic")),
        "stage (not in ordering)": Query(AttributeEquals("stage", "aggregated")),
        "time range (not routable)": Query(
            AttributeRange("window_start", low=Timestamp(0.0), high=Timestamp(3600.0))
        ),
    }
    for label, query in queries.items():
        answer = model.query(query, "london-site")
        result.add_row(
            label,
            len(answer.sites_contacted),
            round(answer.latency_ms, 2),
            answer.messages,
            len(answer.pnames),
        )
    result.notes.append(
        "Only the most significant attribute (city) routes to a single server; "
        "every other query is a broadcast, exactly the penalty the paper predicts "
        "for attributes with no natural significance ordering."
    )
    return result


# ----------------------------------------------------------------------
# E9 -- DHTs: update scaling and placement blindness
# ----------------------------------------------------------------------
def run_e9(hours: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E9",
        title="DHT: update fan-out, updater scaling and placement distance",
        claim=(
            "DHT placement ignores locality, per-attribute updates limit scaling "
            "to tens of thousands of updaters, and recursive queries are costly."
        ),
        headers=["measure", "setting", "value"],
    )
    topology = standard_topology()
    _, raw, derived = _traffic_sets(hours=hours)
    everything = raw + derived

    dht = DistributedHashTable(topology)
    locale = LocaleAwarePass(topology)
    dht_samples = publish_all(dht, everything, topology)
    publish_all(locale, everything, topology)

    result.add_row("index entries per publish", "attribute fan-out", dht.updates_per_publish())
    result.add_row(
        "publish messages (mean)", "dht", round(mean([s[3] for s in dht_samples]), 1)
    )
    for rate in (0.1, 1.0, 10.0):
        result.add_row(
            "max supported updaters",
            f"{rate} publishes/s each",
            dht.max_supported_updaters(rate),
        )
    # Extrapolate to a planetary-scale ring (the deployments the paper has in
    # mind): even then the per-attribute update fan-out caps the system at
    # tens of thousands of updaters, matching the SWORD measurement it cites.
    for ring_nodes in (1000, 10000):
        capacity = dht.per_node_updates_per_second * ring_nodes
        updaters = int(capacity / (0.1 * dht.updates_per_publish()))
        result.add_row(
            "max supported updaters",
            f"{ring_nodes}-node ring, 0.1 publishes/s each",
            updaters,
        )

    dht_distance = mean(
        [dht.placement_distance_km(ts.pname, origin_site_for(ts, topology)) for ts in everything]
    )
    locale_distance = mean(
        [locale.placement_distance_km(ts.pname, origin_site_for(ts, topology)) for ts in everything]
    )
    result.add_row("placement distance km (mean)", "dht", round(dht_distance, 1))
    result.add_row("placement distance km (mean)", "locale-aware-pass", round(locale_distance, 1))

    closure = dht.descendants(raw[0].pname, "london-site")
    result.add_row("closure cost", "messages for one taint query", closure.messages)
    result.notes.append(
        "Each published window writes one DHT entry per queriable attribute, so a "
        "few-thousand-node ring saturates at tens of thousands of updaters; hashed "
        "placement lands London windows thousands of km from London, while the "
        "locale-aware store keeps them at (or next to) their origin."
    )
    return result


# ----------------------------------------------------------------------
# E10 -- storage should be near the sensors
# ----------------------------------------------------------------------
def run_e10(hours: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E10",
        title="Locality: local consumers querying locale-aware vs location-oblivious storage",
        claim=(
            "Sensor data is most valuable near its source; storing it near the "
            "sensors makes the common (local) queries cheap."
        ),
        headers=["model", "local_query_ms", "remote_query_ms", "publish_wan_bytes", "placement_km"],
    )
    topology = standard_topology()
    _, raw, derived = _traffic_sets(cities=("london", "boston"), hours=hours)
    everything = raw + derived
    london_query = Query(AttributeEquals("city", "london"))

    models = build_all_models(topology)
    for name in ("centralized", "dht", "locale-aware-pass"):
        model = models[name]
        samples = publish_all(model, everything, topology)
        if isinstance(model, SoftStateIndex):
            model.force_refresh()
        wan_bytes = sum(sample[4] for sample in samples)
        local = model.query(london_query, "london-site")
        remote = model.query(london_query, "tokyo-site")
        if name == "dht":
            distance = mean(
                [
                    model.placement_distance_km(ts.pname, origin_site_for(ts, topology))
                    for ts in everything
                ]
            )
        elif name == "locale-aware-pass":
            distance = mean(
                [
                    model.placement_distance_km(ts.pname, origin_site_for(ts, topology))
                    for ts in everything
                ]
            )
        else:
            distance = 0.0  # data stays at origin; only metadata moves
        result.add_row(
            name,
            round(local.latency_ms, 2),
            round(remote.latency_ms, 2),
            wan_bytes,
            round(distance, 1),
        )
    result.notes.append(
        "The locale-aware store answers London's query from London; the "
        "centralized index forces even local consumers onto the wide area, and "
        "the DHT both ships the data far away and pays multi-hop routing."
    )
    return result


# ----------------------------------------------------------------------
# E11 -- reliability: crash injection and recovery
# ----------------------------------------------------------------------
def run_e11(crash_points: Sequence[int] = (10, 50, 200)) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E11",
        title="Crash recovery of provenance metadata",
        claim=(
            "The system must recover provenance metadata to a state consistent "
            "with its data after a system failure."
        ),
        headers=["crash_after_writes", "acknowledged", "recovered", "consistent", "torn_entries_discarded"],
    )
    import tempfile
    from pathlib import Path

    workload = TrafficWorkload(seed=17, stations_per_city=4)
    raw, derived = workload.all_sets(hours=2.0)
    everything = raw + derived

    for crash_after in crash_points:
        with tempfile.TemporaryDirectory() as tmp:
            db_path = Path(tmp) / "pass.db"
            wal_path = Path(tmp) / "pass.wal"
            backend = SQLiteBackend(db_path, crash_after_writes=crash_after)
            wal = WriteAheadLog(wal_path)
            acknowledged: List[PName] = []
            crashed = False
            for index, tuple_set in enumerate(everything):
                try:
                    wal.log_put_record(tuple_set.provenance)
                    backend.put_record(tuple_set.provenance)
                    acknowledged.append(tuple_set.pname)
                except CrashInjectedError:
                    crashed = True
                    break
            # Tear the final WAL line to simulate a mid-sector crash too.
            wal.inject_torn_write()
            if not crashed and everything:
                try:
                    wal.log_put_record(everything[-1].provenance)
                except CrashInjectedError:  # pragma: no cover - not expected here
                    pass

            # Recovery: reopen the database, replay the WAL.
            recovered_backend = SQLiteBackend(db_path)
            report = wal.replay(recovered_backend)
            recovered_store = PassStore(backend=recovered_backend)
            recovered = {pname.digest for pname in recovered_store.pnames()}
            missing = [pname for pname in acknowledged if pname.digest not in recovered]
            consistent = not missing and not recovered_store.verify_invariants()
            result.add_row(
                crash_after,
                len(acknowledged),
                len(recovered),
                consistent,
                report.skipped_corrupt,
            )
            recovered_backend.close()
    result.notes.append(
        "Every write acknowledged before the crash is present after WAL replay; "
        "torn log entries are detected by checksum and discarded rather than "
        "corrupting the recovered index."
    )
    return result


# ----------------------------------------------------------------------
# E12 -- the full design-space matrix
# ----------------------------------------------------------------------
def run_e12(hours: float = 1.0, queries_per_model: int = 6) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E12",
        title="Design space: every architecture against every criterion",
        claim=(
            "Given locale-specific data and sensor-scale update rates, no existing "
            "storage/query model offers a satisfying fit."
        ),
        headers=[
            "model",
            "publish_ms",
            "publish_msgs",
            "publish_bytes",
            "query_ms",
            "closure_ms",
            "precision",
            "recall",
            "placement_km",
            "usability",
        ],
    )
    topology = standard_topology()
    models = build_all_models(topology)
    _, raw, derived = _traffic_sets(cities=("london", "boston"), hours=hours)
    weather = WeatherWorkload(seed=23, regions=("london",))
    weather_raw, weather_derived = weather.all_sets(hours=hours)
    everything = raw + derived + weather_raw + weather_derived
    truth_store = ground_truth_store(everything)

    probe_queries = [
        Query(AttributeEquals("city", "london")),
        Query(AttributeEquals("domain", "traffic")),
        Query(AttributeEquals("stage", "aggregated")),
        Query(AttributeEquals("region", "london")),
        Query(And((AttributeEquals("domain", "traffic"), AttributeEquals("stage", "filtered")))),
        Query(AttributeEquals("network", "london-congestion-zone")),
    ][:queries_per_model]
    lineage_targets = [ts.pname for ts in (derived[-3:] if len(derived) >= 3 else derived)]

    for name in MODEL_NAMES:
        model = models[name]
        scores = CriteriaScores(model=name, supports_lineage=model.supports_lineage)
        samples = publish_all(model, everything, topology)
        for _, _, latency, messages, size in samples:
            scores.publish_samples.append(LatencySample(latency, messages, size))
        if isinstance(model, SoftStateIndex):
            model.force_refresh()

        precisions, recalls = [], []
        for query in probe_queries:
            answer = model.query(query, "london-site")
            scores.query_samples.append(
                LatencySample(answer.latency_ms, answer.messages, answer.bytes)
            )
            truth = truth_store.query(query)
            p, r = precision_recall(answer.pnames, truth)
            precisions.append(p)
            recalls.append(r)
        scores.precision = mean(precisions)
        scores.recall = mean(recalls)

        if model.supports_lineage:
            for target in lineage_targets:
                try:
                    answer = model.ancestors(target, "london-site")
                except UnsupportedQueryError:
                    scores.supports_lineage = False
                    break
                scores.lineage_samples.append(
                    LatencySample(answer.latency_ms, answer.messages, answer.bytes)
                )

        if isinstance(model, (DistributedHashTable, LocaleAwarePass)):
            scores.placement_distance_km = mean(
                [
                    model.placement_distance_km(ts.pname, origin_site_for(ts, topology))
                    for ts in everything
                ]
            )
        else:
            scores.placement_distance_km = 0.0

        row = scores.as_row()
        result.add_row(*[row[header] for header in result.headers])

    result.notes.append(
        "No single model leads every column: the centralized warehouse wins raw "
        "query latency but pays wide-area publishes and saturates on updates; the "
        "DHT loses locality and pays the largest publish fan-out; soft state gives "
        "up closure; the locale-aware PASS keeps placement local and supports every "
        "query class, at the price of contacting more sites for non-local queries."
    )
    return result
