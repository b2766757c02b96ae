"""The repository's benchmark: one command, every metric by name and unit.

    python3 benchmarks/layers/run.py                      # all four workloads, untraced + traced
    python3 benchmarks/layers/run.py --workload query_local --seed 11 --seconds 10 --trace 0
    python3 benchmarks/layers/run.py --aa                 # two full sets must agree within the bounds

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``: the median of three repetitions -- five on
``service_mixed`` -- each on fresh stores in a fresh subprocess) or every per-layer metric (``--trace 1``:
one traced repetition; a layer the workload never enters reads 0).
``--seconds`` scales the fixed op counts (``seconds / RUN_SECONDS``); no
count is ever derived from elapsed time.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import bootstrap

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS, as_metrics, names_of
from rep import REPETITIONS

DEFAULT_SEED = 11
#: a repetition (5-12 s here) that has not answered by then is abandoned:
#: up to five of them must end inside the 180 s the driver allows a run
REPETITION_TIMEOUT_S = 33


def host_stamp() -> dict:
    """``host_environment()`` of ``benchmarks/conftest.py``, imported by path."""
    path = bootstrap.REPO / "benchmarks" / "conftest.py"
    try:
        spec = importlib.util.spec_from_file_location("layers_bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.host_environment()
    except (ImportError, OSError):  # the helper (or pytest, which it imports) is gone: stamp the essentials
        return {"python": platform.python_version(), "platform": platform.platform(), "cpu_count": os.cpu_count()}


def one_repetition(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run ``rep.py`` in a fresh interpreter; its last stdout line is the result."""
    # ``started``: the interpreter's start-up and imports count towards ``setup_s``
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced, "started": time.time()}
    # A fixed hash seed keeps set iteration order, and with it every count, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(bootstrap.HERE / "rep.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=REPETITION_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload: str, repetitions: List[dict], traced: bool) -> dict:
    """Medians over the repetitions, counts summed.  Beside the table's own
    metrics an untraced run carries the ``tail.*`` rows, for the reader only."""
    names = names_of(PER_LAYER if traced else END_TO_END)
    names += [name for name in repetitions[0]["values"] if name not in names]
    samples: Dict[str, int] = {}
    for rep in repetitions:
        for kind, number in rep["samples"].items():
            samples[kind] = samples.get(kind, 0) + number
    return {
        "workload": workload,
        "traced": traced,
        "values": {name: statistics.median(rep["values"].get(name, 0.0) for rep in repetitions) for name in names},
        "samples": samples,
        "attempted": sum(rep["attempted"] for rep in repetitions),
        "failed": sum(rep["failed"] for rep in repetitions),
        "repetitions": repetitions,
    }


def run_set(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run of one workload.  Repetition ``r`` draws its inputs from seed
    ``seed * repetitions + r``, so a run also averages over that many input sets."""
    count = 1 if traced else REPETITIONS[workload]
    return summarise(
        workload, [one_repetition(workload, seed * count + index, seconds, traced) for index in range(count)], traced
    )


def samples_beside(name: str, samples: Dict[str, int]) -> str:
    for kind in ("publish_many", "publish", "query", "lineage"):
        if name.startswith((kind + "_", "tail." + kind + "_")):
            return f"n={samples.get(kind, 0)}"
    return ""


def print_set(result: dict) -> None:
    mode = "traced, per layer" if result["traced"] else f"untraced, median of {len(result['repetitions'])} repetitions"
    print(f"\n== {result['workload']} ({mode}) ==")
    first = result["repetitions"][0]
    for key in ("flush_policy", "span_file", "spans", "counts_repeat"):
        if key in first:
            print(f"{key}: {first[key]}")
    if not result["traced"]:
        slowdowns = ", ".join(f"{rep['host_slowdown']:.3f}" for rep in result["repetitions"])
        print(f"host slowdown per repetition (times below are wall-clock divided by it): {slowdowns}")
    labels = first.get("labels", {})
    for name, value in result["values"].items():
        note = labels.get(name) or samples_beside(name, result["samples"])
        print(f"{name:48s} {value:16.4f} {UNITS[name]:6s} {note}")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")


def result_line(result: dict) -> str:
    names = names_of(PER_LAYER if result["traced"] else END_TO_END)
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": as_metrics(result["values"], names),
        }
    )


def full_run(seed: int, seconds: float, traced_too: bool = True) -> Dict[str, dict]:
    """Every workload, untraced (and traced); printed as it completes."""
    results: Dict[str, dict] = {}
    for workload in WORKLOADS:
        results[workload] = run_set(workload, seed, seconds, traced=False)
        print_set(results[workload])
        if traced_too:
            results[workload + "/traced"] = run_set(workload, seed, seconds, traced=True)
            print_set(results[workload + "/traced"])
    return results


def compare_sets(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """A/A: every end-to-end metric of two runs of the same code, beside its bound."""
    breaches = []
    print(f"\n== A/A ==\n{'workload':16s} {'metric':30s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for workload in WORKLOADS:
        for name, _, _, bound in END_TO_END:
            a, b = first[workload]["values"][name], second[workload]["values"][name]
            difference = abs(a - b) / a
            flag = "" if difference <= bound else "  EXCEEDS"
            print(f"{workload:16s} {name:30s} {a:14.4f} {b:14.4f} {difference:8.4f} {bound:6.2f}{flag}")
            if flag:
                breaches.append(f"{workload}/{name}")
    return breaches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="run two full untraced sets and compare them")
    args = parser.parse_args()

    stamp = host_stamp()
    print(f"host: {json.dumps(stamp, sort_keys=True)}")
    if args.aa:
        first = full_run(args.seed, args.seconds, traced_too=False)
        second = full_run(args.seed, args.seconds, traced_too=False)
        breaches = compare_sets(first, second)
        failed = sum(result["failed"] for result in (*first.values(), *second.values()))
        print(f"A/A: {len(breaches)} metric(s) beyond their bound {breaches}; {failed} failed op(s)")
        return 1 if breaches or failed else 0
    if args.workload is None:
        results = full_run(args.seed, args.seconds)
        bootstrap.OUT.mkdir(exist_ok=True)
        summary = bootstrap.OUT / f"layers-seed{args.seed}.json"
        summary.write_text(json.dumps({"host": stamp, "results": results}, indent=1), encoding="utf-8")
        print(f"\nsummary written to {summary.relative_to(bootstrap.REPO)}")
        return 1 if any(result["failed"] for result in results.values()) else 0
    result = run_set(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    print_set(result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
