"""Spread report: run the benchmark over several seeds and summarise it.

Run from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --save .perfbench/set-a.json
    python3 perfbench/spread.py --load .perfbench/set-a.json --against .perfbench/set-b.json

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.
An end-to-end metric is flagged when its spread exceeds its bound in
``BENCHMARK.json``, when a run gave a wrong answer, when ``decided_share``
differs between runs, or, with ``--against``, when the second set's median
is worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_all(spec: dict, workloads: List[str], seeds: List[int], trace: int) -> Dict[str, list]:
    runs: Dict[str, list] = {}
    for workload in workloads:
        for seed in seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
            report = json.loads(done.stdout.splitlines()[-1])
            report["seed"] = seed
            runs.setdefault(workload, []).append(report)
            print(f"ran {workload} seed {seed}", file=sys.stderr, flush=True)
    return runs


def summarise(values: List[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def report(spec: dict, runs: Dict[str, list], against: Dict[str, list] = None) -> int:
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    flags = 0
    for workload, reports in runs.items():
        print(f"\n{workload}: {len(reports)} runs")
        if not all(r["correct"] for r in reports):
            print("  FLAG: a run gave a wrong answer")
            flags += 1
        names = sorted({name for r in reports for name in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
            stats = summarise(values)
            line = (
                f"  {name:32s} median {stats['median']:12.4f}  q1 {stats['q1']:12.4f}"
                f"  q3 {stats['q3']:12.4f}  spread {stats['spread']:6.3f}"
            )
            bound = bounds.get(name)
            if bound is not None:
                line += f"  bound {bound['bound']}"
                if stats["spread"] > bound["bound"]:
                    line += "  FLAG: spread above bound"
                    flags += 1
                if name == "decided_share" and len(set(values)) > 1:
                    line += "  FLAG: not identical across runs"
                    flags += 1
                if against and workload in against:
                    other = statistics.median(
                        r["metrics"][name]["value"] for r in against[workload]
                    )
                    change = (other - stats["median"]) / stats["median"]
                    worse = -change if bound["better"] == "higher" else change
                    line += f"  second set {change:+.3f}"
                    if worse > bound["bound"]:
                        line += "  FLAG: second set worse than bound"
                        flags += 1
            print(line)
    print(f"\n{flags} flag(s)")
    return 1 if flags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw run reports here")
    parser.add_argument("--load", help="report on saved runs instead of running")
    parser.add_argument("--against", help="saved runs of a second set to compare")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.load:
        with open(args.load, encoding="utf-8") as handle:
            runs = json.load(handle)
    else:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        runs = run_all(spec, names, args.seeds, args.trace)
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            against = json.load(handle)
    return report(spec, runs, against)


if __name__ == "__main__":
    sys.exit(main())
