"""Alternating parent/change pairs of the layers benchmark, and their verdicts.

    python3 benchmarks/pairs.py PARENT CHANGE FIRST-LAST WORKLOAD [WORKLOAD ...]

``PARENT`` and ``CHANGE`` are two checkouts; ``FIRST-LAST`` is a range of
seeds nobody has looked at yet, one pair per seed and workload.  Each side
is measured by *its own* ``benchmarks/layers/run.py --workload W --seed S
--seconds 10 --trace 0`` (its last stdout line is the result), the parent
first on even pairs and the change first on odd ones.  Every run, each
side's quartiles, the pairs the change won and both verdicts of the
``choosing-metrics`` guide land in ``benchmarks/results/BENCH_layers.json``
beside this file.  There is nothing to configure: run length, metrics and
bounds are the benchmark's (``BENCHMARK.json`` of the change checkout).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from conftest import host_environment

COMMAND = ("benchmarks/layers/run.py", "--seconds", "10", "--trace", "0")
OUT = Path(__file__).resolve().parent / "results" / "BENCH_layers.json"


def one_run(checkout: Path, workload: str, seed: int) -> dict:
    """``{"git_sha", "attempted", "failed", "metrics": {name: value}}`` of one side."""
    done = subprocess.run(
        [sys.executable, *COMMAND, "--workload", workload, "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    host = next(json.loads(line[len("host: "):]) for line in lines if line.startswith("host: "))
    result = json.loads(lines[-1])
    return {
        "git_sha": host.get("git_sha", "unknown"),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(parent: list, change: list, higher_is_better: bool, bound: float) -> dict:
    """One metric on one workload: the gain rule and the no-regression rule."""
    sign = 1.0 if higher_is_better else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gap = sign * (c["median"] - p["median"])  # > 0: the change reads better
    base = abs(p["median"]) or 1.0
    spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"]) / base
    every_run_better = min(sign * b for b in change) > max(sign * a for a in parent)
    if -gap / base > bound:
        regression = "regressed"
    elif spread > bound and not every_run_better:
        regression = "unresolved"
    else:
        regression = "inside bound"
    return {
        "parent": {**p, "runs": parent},
        "change": {**c, "runs": change},
        "pairs_won": wins, "ties": ties, "pairs": len(parent),
        "median_worse_by": -gap / base, "bound": bound, "spread": spread,
        "no_regression": regression,
        # the guide's rule: >= 9/10 of pairs, and the medians apart by more than the parent's IQR
        "gain": wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"],
    }


def main(argv: list) -> int:
    try:
        parent, change, seed_range, *workloads = argv
        first, last = (int(part) for part in seed_range.split("-"))
    except ValueError:
        workloads = []
    if not workloads or last <= first:  # quartiles need two pairs
        print(__doc__)
        return 2
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    seeds = list(range(first, last + 1))
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    document = {
        "host": host_environment(),
        "command": " ".join(("python3", *COMMAND, "--workload W --seed S")),
        "order": "even pairs run the parent first, odd pairs the change",
        "git_sha": {}, "seeds": seeds, "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair, seed in enumerate(seeds):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                runs[side].append(one_run(sides[side], workload, seed))
                print(f"{workload} seed {seed} {side}: {json.dumps(runs[side][-1]['metrics'])}", flush=True)
        for side in sides:
            document["git_sha"][side] = runs[side][0]["git_sha"]
        verdicts = {
            metric["name"]: judge(
                [run["metrics"][metric["name"]] for run in runs["parent"]],
                [run["metrics"][metric["name"]] for run in runs["change"]],
                metric["better"] == "higher", metric["bound"],
            )
            for metric in declared
        }
        totals = {key: {side: sum(run[key] for run in runs[side]) for side in sides} for key in ("attempted", "failed")}
        document["workloads"][workload] = {**totals, "metrics": verdicts}
        # written after every workload: an hour of runs is not lost to the last one
        OUT.parent.mkdir(exist_ok=True)
        OUT.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"\n{workload}: failed/attempted "
              + ", ".join(f"{side} {totals['failed'][side]}/{totals['attempted'][side]}" for side in sides))
        for name, verdict in verdicts.items():
            print(f"  {name:30s} {verdict['parent']['median']:12.4f} -> {verdict['change']['median']:12.4f}"
                  f"  won {verdict['pairs_won']}/{verdict['pairs']}  worse by {verdict['median_worse_by']:+.3f}"
                  f" (bound {verdict['bound']})  {verdict['no_regression']}{'  GAIN' if verdict['gain'] else ''}")
    print(f"\nwritten to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
