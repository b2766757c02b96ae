"""Capture what every architecture-model operation answers and costs.

``capture()`` drives one fixed, seeded scenario through all seven
Section IV models -- single publishes without and with a subscriber,
per-site ``publish_batch``, six query shapes from two origins, both
closure directions, ``locate`` -- and returns, per operation, the answer
(pnames, rows scanned, sites contacted, notes) and the cost (messages,
bytes, ``repr(latency_ms)``), plus each model's ``traffic_snapshot()``,
``describe()`` and the journal digest + snapshot of a 4-client
``simulate()`` run.  ``fixtures/model_costs.json`` is this output at the
commit *before* cost was derived from the captured trace; the replay
test in ``test_cost_golden.py`` holds every later commit to it.

Run ``PYTHONPATH=src python tests/distributed/costs.py`` to print the
JSON, ``--write`` to regenerate the fixture (the scenario uses only
public API, so it runs unchanged on older checkouts).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.api import wrap
from repro.api.dsl import Q
from repro.core import And, AttributeEquals, AttributeRange, DerivedFrom, PName, Query
from repro.errors import UnsupportedQueryError
from repro.eval.scenario import MODEL_NAMES, build_all_models, standard_topology
from repro.sensors.workloads import TrafficWorkload
from repro.sim import SimConfig

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "model_costs.json"

QUERY_ORIGINS = ("tokyo-site", "london-site")
#: busy servers and jitter, so the replay queues instead of degenerating
SIM_CONFIG = SimConfig(seed=33, service_ms_per_message=2.0, jitter=0.1, journal=True)


def scenario_sets():
    """The fixed workload: (raw, derived) tuple sets, seeded."""
    workload = TrafficWorkload(seed=33, cities=("london", "boston"), stations_per_city=2)
    return workload.all_sets(hours=1.0)


def query_shapes(raw) -> List[tuple]:
    """Six shapes: routable, empty, flood, conjunction, unindexed, lineage."""
    return [
        ("eq-city", Query(AttributeEquals("city", "london"))),
        ("eq-empty", Query(AttributeEquals("city", "atlantis"))),
        ("range", Query(AttributeRange("reading_count", low=1))),
        (
            "conjunction",
            Query(And((AttributeEquals("stage", "filtered"), AttributeEquals("city", "boston")))),
        ),
        ("eq-owner", Query(AttributeEquals("owner", "london-transport-authority"))),
        ("derived-from", Query(DerivedFrom(raw[0].pname))),
    ]


def _site_of(tuple_set) -> str:
    return f"{tuple_set.provenance.get('city')}-site"


def _row(op: str, label: str, origin: str, call, index: Dict[str, int]) -> dict:
    row = {"op": op, "label": label, "origin": origin}
    try:
        result = call()
    except UnsupportedQueryError:
        row["unsupported"] = True
        return row
    row.update(
        pnames=[index[pname.digest] for pname in result.pnames],
        messages=result.messages,
        bytes=result.bytes,
        rows_scanned=result.rows_scanned,
        sites_contacted=list(result.sites_contacted),
        notes=list(result.notes),
        latency_ms=repr(result.latency_ms),
    )
    return row


def drive(model, raw, derived, record) -> None:
    """Run the scenario on ``model``, handing each operation to ``record``.

    ``record(op, label, origin, call)`` decides what to keep of the
    operation ``call()`` performs (the golden keeps answer + cost, the
    conservation test the traffic delta around it).
    """
    half = len(raw) // 2
    for tuple_set in raw[:half]:
        origin = _site_of(tuple_set)
        record("publish", "quiet", origin, lambda: model.publish(tuple_set, origin))
    # From here on every london publish also pays a background notify hop.
    client = wrap(model)
    client.subscribe(Q.attr("city") == "london", origin="tokyo-site")
    for tuple_set in raw[half:]:
        origin = _site_of(tuple_set)
        record("publish", "watched", origin, lambda: model.publish(tuple_set, origin))
    for origin in ("boston-site", "london-site"):
        batch = [tuple_set for tuple_set in derived if _site_of(tuple_set) == origin]
        record("publish_batch", "watched", origin, lambda: model.publish_batch(batch, origin))
    client.refresh()  # soft state: push the pending summaries so queries see them

    for label, query in query_shapes(raw):
        for origin in QUERY_ORIGINS:
            record("query", label, origin, lambda: model.query(query, origin))
    deepest, first = derived[-1].pname, raw[0].pname
    record("ancestors", "deepest", "seattle-site", lambda: model.ancestors(deepest, "seattle-site"))
    record("descendants", "first-raw", "boston-site", lambda: model.descendants(first, "boston-site"))
    # Each (origin, key) once or twice -- never a third time.
    for label, pname, origin in (
        ("first-raw", first, "tokyo-site"),
        ("first-raw", first, "tokyo-site"),
        ("first-raw", first, "london-site"),
        ("deepest", deepest, "tokyo-site"),
        ("unknown", PName("f" * 64), "tokyo-site"),
    ):
        record("locate", label, origin, lambda: model.locate(pname, origin))


def capture() -> dict:
    """The scripted scenario's answers and costs, as one JSON-ready dict."""
    raw, derived = scenario_sets()
    everything = raw + derived
    index = {tuple_set.pname.digest: number for number, tuple_set in enumerate(everything)}
    captured: Dict[str, dict] = {}
    for name, model in build_all_models(standard_topology()).items():
        rows: List[dict] = []
        drive(model, raw, derived, lambda *op: rows.append(_row(*op, index)))
        captured[name] = {
            "ops": rows,
            "traffic": model.traffic_snapshot(),
            "describe": model.describe(),
        }
    # Concurrent replay of the same captured traces, on fresh models.
    for name, model in build_all_models(standard_topology()).items():
        report = wrap(model).simulate(everything, clients=4, config=SIM_CONFIG)
        captured[name]["sim"] = {
            "journal_digest": report.journal_digest,
            "snapshot": report.snapshot(),
        }
    assert list(captured) == MODEL_NAMES
    return {"pnames": [tuple_set.pname.digest for tuple_set in everything], "models": captured}


def render() -> str:
    return json.dumps(capture(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        FIXTURE.write_text(render(), encoding="utf-8")
    else:
        sys.stdout.write(render())
