"""Conservation: what an operation reports is what the network carried.

For every architecture model and every operation kind, the ``messages``
and ``bytes`` on the returned :class:`OperationResult` must equal the
growth of the model's :class:`NetworkSimulator` traffic counters across
the call -- background ``notify`` hops to an attached subscriber
included.  (Before cost was read off the captured trace, the
distributed database charged every query reply as one pointer whatever
the sites actually sent back.)
"""

from __future__ import annotations

import pytest
from costs import drive, scenario_sets

from repro.errors import UnsupportedQueryError
from repro.eval.scenario import MODEL_NAMES, build_all_models, standard_topology

OP_KINDS = ("publish", "publish_batch", "query", "ancestors", "descendants", "locate")


@pytest.fixture(scope="module")
def ledgers():
    """model name -> [(op, label, origin, reported, carried)] over the golden scenario."""
    raw, derived = scenario_sets()
    collected = {}
    for name, model in build_all_models(standard_topology()).items():
        rows = collected[name] = []
        stats = model.network.stats

        def record(op, label, origin, call, rows=rows, stats=stats):
            before = (stats.messages, stats.bytes)
            try:
                result = call()
            except UnsupportedQueryError:
                return
            carried = (stats.messages - before[0], stats.bytes - before[1])
            rows.append((op, label, origin, (result.messages, result.bytes), carried))

        drive(model, raw, derived, record)
    return collected


@pytest.mark.parametrize("kind", OP_KINDS)
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_reported_cost_equals_traffic_carried(ledgers, model_name, kind):
    rows = [row for row in ledgers[model_name] if row[0] == kind]
    if model_name == "soft-state" and kind in ("ancestors", "descendants"):
        assert not rows  # refused, nothing to conserve
        return
    assert rows, f"the scenario never ran {kind} on {model_name}"
    for op, label, origin, reported, carried in rows:
        assert reported == carried, (
            f"{model_name} {op} [{label} from {origin}]: reported (messages, bytes) "
            f"{reported} but the network carried {carried}"
        )
