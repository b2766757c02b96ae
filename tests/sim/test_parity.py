"""Parity: degenerate kernel replay equals the latency an operation reports.

An operation's ``latency_ms`` is the closed form of its captured trace
(:func:`~repro.sim.trace.trace_elapsed_ms`: sequential steps add,
fan-outs take the slowest branch).  The load-bearing property: for
every architecture model and every operation kind, replaying that trace
through a kernel with no service time, no jitter and no contention
yields the same number -- the single-client figures the experiments
print are a provable degenerate case of the simulation.  A property
test extends the equality from the models' traces to arbitrary ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeEquals, AttributeRange, Query
from repro.errors import UnsupportedQueryError
from repro.eval.scenario import MODEL_NAMES, build_all_models, standard_topology
from repro.sensors.workloads import TrafficWorkload
from repro.sim import Compute, Hop, OpTrace, Parallel, SimConfig, SimKernel, trace_elapsed_ms


def _degenerate_replay(model, result):
    """Replay one operation's trace; returns (end_time, ok)."""
    assert result.trace is not None, "operation captured no trace"
    kernel = SimKernel(SimConfig(), is_partitioned=model.network.is_partitioned)
    outcome = {}
    kernel.schedule_trace(result.trace, 0.0, lambda end, ok: outcome.update(end=end, ok=ok))
    kernel.run()
    return outcome["end"], outcome["ok"]


def _assert_parity(model, result, label):
    end, ok = _degenerate_replay(model, result)
    assert ok, f"{model.name} {label}: degenerate replay reported failure"
    assert end == pytest.approx(result.latency_ms, rel=1e-9, abs=1e-9), (
        f"{model.name} {label}: reported {result.latency_ms} != replayed {end}"
    )


@pytest.fixture(scope="module")
def workload_sets():
    workload = TrafficWorkload(seed=21, cities=("london", "boston"), stations_per_city=2)
    return workload.all_sets(hours=1.0)


@pytest.mark.parametrize("model_name", MODEL_NAMES)
class TestSingleClientParity:
    """Every op kind, every model: reported latency == degenerate replay."""

    def test_all_operation_kinds_match(self, model_name, workload_sets):
        raw, derived = workload_sets
        model = build_all_models(standard_topology())[model_name]

        # Publishes (each from the tuple set's own city's site).
        for tuple_set in raw + derived:
            city = str(tuple_set.provenance.get("city", "london"))
            origin = f"{city}-site" if f"{city}-site" in model.topology else "london-site"
            _assert_parity(model, model.publish(tuple_set, origin), "publish")

        # Attribute queries: routable equality, range (flood/broadcast
        # paths), and an empty answer.
        for label, query in (
            ("query-eq", Query(AttributeEquals("city", "london"))),
            ("query-range", Query(AttributeRange("sequence", low=1))),
            ("query-empty", Query(AttributeEquals("city", "atlantis"))),
        ):
            _assert_parity(model, model.query(query, "tokyo-site"), label)

        # Lineage (where supported) and locate.
        target = derived[-1] if derived else raw[0]
        if model.supports_lineage:
            _assert_parity(model, model.ancestors(target.pname, "seattle-site"), "ancestors")
            _assert_parity(model, model.descendants(raw[0].pname, "boston-site"), "descendants")
        else:
            with pytest.raises(UnsupportedQueryError):
                model.ancestors(target.pname, "seattle-site")
        _assert_parity(model, model.locate(raw[0].pname, "tokyo-site"), "locate")

    def test_publish_batch_parity(self, model_name, workload_sets):
        raw, _ = workload_sets
        model = build_all_models(standard_topology())[model_name]
        result = model.publish_batch(list(raw), "london-site")
        _assert_parity(model, result, "publish_batch")


# ----------------------------------------------------------------------
# Property: for *any* operation structure, degenerate replay equals the
# closed-form composition (sequential sums, parallel maxima).
# ----------------------------------------------------------------------
_SITES = ("s0", "s1", "s2")
_latency = st.floats(min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False)

_hops = st.builds(
    Hop,
    source=st.sampled_from(_SITES),
    destination=st.sampled_from(_SITES),
    size_bytes=st.integers(min_value=0, max_value=4096),
    kind=st.just("hop"),
    base_latency_ms=_latency,
    critical=st.booleans(),
)
# Site-less computes only: a *sited* compute deliberately occupies its
# server, so two of them racing in parallel branches serialize -- the
# queueing behaviour the kernel adds on purpose, outside the closed form.
_computes = st.builds(Compute, ms=_latency, site=st.just(""))
_steps = st.recursive(
    st.one_of(_hops, _computes),
    lambda children: st.builds(
        Parallel, branches=st.lists(st.lists(children, max_size=3), max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_steps, max_size=6), start=st.floats(min_value=0.0, max_value=1000.0))
def test_replay_matches_closed_form_for_arbitrary_traces(steps, start):
    kernel = SimKernel(SimConfig())
    outcome = {}
    kernel.schedule_trace(
        OpTrace(kind="any", origin="s0", steps=steps),
        start,
        lambda end, ok: outcome.update(end=end, ok=ok),
    )
    kernel.run()
    assert outcome["ok"]
    assert outcome["end"] - start == pytest.approx(trace_elapsed_ms(steps), rel=1e-9, abs=1e-6)
