"""Tier-1 smoke test of ``benchmarks/layers``: every workload at 1/100 scale.

Collected by the default ``pytest`` run.  It checks what a timing cannot:
that every workload verifies against the oracle, that the result line
carries every metric ``BENCHMARK.json`` names, that the counts repeat
exactly, and that a wrong answer would have been counted as a failed op.
"""

from __future__ import annotations

import json

import pytest

import bootstrap

from repro.server import protocol

import probes
import rep
import run
from metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_document, names_of
from workload import Stream

SCALE = 0.01
SEED = 7


def test_benchmark_json_is_what_the_metric_tables_say():
    document = json.loads((bootstrap.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == benchmark_document()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_verifies_and_reports_every_end_to_end_metric(workload):
    result = run.summarise(workload, [rep.repetition(workload, SEED, SCALE, traced=False)], traced=False)
    assert result["failed"] == 0 and result["attempted"] > 0
    line = json.loads(run.result_line(result))
    assert line["correct"] is True
    assert list(line["metrics"]) == names_of(END_TO_END)
    for name, unit, _, _ in END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_its_counts_repeat(workload):
    result = rep.repetition(workload, SEED, SCALE, traced=True)
    assert result["failed"] == 0 and result["attempted"] > 0
    line = json.loads(run.result_line(run.summarise(workload, [result], traced=True)))
    assert list(line["metrics"]) == names_of(PER_LAYER)
    for name, unit, _ in PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
    assert result["values"]["harness.span_overhead_ratio"] > 0
    spans = json.loads((bootstrap.REPO / result["span_file"]).read_text(encoding="utf-8"))
    assert spans["columns"] == ["name", "start_ns", "end_ns", "parent", "op"]
    assert len(spans["spans"]) == result["spans"] > 0
    # the unspanned and the spanned pass fed fresh stores the same inputs
    for name, (first, second) in result["counts_repeat"].items():
        assert first == second, name
    assert result["values"]["storage.group_commits"] > 0
    assert result["values"]["storage.backend_puts_per_set"] > 0
    assert result["values"]["query.executor.rows_scanned_per_row_returned"] > 0
    if workload == "service_mixed":
        assert result["values"]["server.protocol.bytes_per_op"] > 0


def test_wire_bytes_repeat_for_a_seed():
    def frame_bytes():
        stream = Stream(SEED)
        stream.sets(200, chain_links=20)
        ops = [stream.publish_op(), stream.query_op("eq_cold"), stream.lineage_op("ancestors_aggregate")]
        return [len(protocol.encode_frame(probes.request_envelope(op, number))) for number, op in enumerate(ops)]

    assert frame_bytes() == frame_bytes()


def test_a_wrong_answer_is_counted_as_a_failed_op():
    corrupted = rep.repetition("query_local", SEED, SCALE, traced=False, corrupt=True)
    assert corrupted["failed"] == 1
    assert json.loads(run.result_line(run.summarise("query_local", [corrupted], traced=False)))["correct"] is False
