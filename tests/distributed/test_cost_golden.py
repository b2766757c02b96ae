"""Replay the model-cost golden captured before cost was read off the trace.

``fixtures/model_costs.json`` is ``costs.capture()`` at the last commit
whose models accounted latency, messages and bytes by hand.  Everything
must still match exactly -- answers, messages, bytes, traffic counters,
``describe()`` and the concurrent-replay journal -- except latency,
which is the same hops summed in a different order (``rel=1e-9``), and
the rows listed in ``FIXED_BYTES``: the one place the hand accounting
had drifted from what the network carried.
"""

from __future__ import annotations

import json

import pytest
from costs import FIXTURE, capture

from repro.eval.scenario import MODEL_NAMES

#: (model, op index) -> (bytes the hand accounting reported, bytes carried).
#: The distributed database charged every query reply as one pointer.
FIXED_BYTES = {
    ("distributed-db", 26): (1760, 3296),  # eq-city from tokyo-site
    ("distributed-db", 27): (1760, 3296),  # eq-city from london-site
    ("distributed-db", 30): (1760, 3584),  # range from tokyo-site
    ("distributed-db", 31): (1760, 3584),  # range from london-site
    ("distributed-db", 34): (1760, 3296),  # eq-owner from tokyo-site
    ("distributed-db", 35): (1760, 3296),  # eq-owner from london-site
    ("distributed-db", 36): (1760, 2144),  # derived-from from tokyo-site
    ("distributed-db", 37): (1760, 2144),  # derived-from from london-site
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replayed():
    # Through JSON, so tuples/lists and int/float keys compare like the fixture's.
    return json.loads(json.dumps(capture()))


def test_scenario_is_the_captured_one(golden, replayed):
    assert replayed["pnames"] == golden["pnames"]
    assert set(replayed["models"]) == set(golden["models"]) == set(MODEL_NAMES)


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_operations_answer_and_cost_what_they_did(golden, replayed, model_name):
    want_ops = golden["models"][model_name]["ops"]
    got_ops = replayed["models"][model_name]["ops"]
    assert len(got_ops) == len(want_ops)
    for number, (got, want) in enumerate(zip(got_ops, want_ops)):
        where = f"{model_name} op {number} ({want['op']} {want['label']} from {want['origin']})"
        got, want = dict(got), dict(want)
        if "latency_ms" in want:
            assert float(got.pop("latency_ms")) == pytest.approx(
                float(want.pop("latency_ms")), rel=1e-9
            ), where
        if (model_name, number) in FIXED_BYTES:
            assert (want.pop("bytes"), got.pop("bytes")) == FIXED_BYTES[model_name, number], where
        assert got == want, where


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_traffic_describe_and_concurrent_replay_are_unchanged(golden, replayed, model_name):
    want, got = golden["models"][model_name], replayed["models"][model_name]
    assert got["traffic"] == want["traffic"]
    assert want["traffic"]["by_kind"]["notify"]["messages"] > 0  # a subscriber was listening
    assert got["describe"] == want["describe"]
    assert got["sim"] == want["sim"]
