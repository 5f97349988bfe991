#!/usr/bin/env python3
"""Runs perfbench several times with different seeds and reports, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/repeat.py --workload checkout --runs 10 [--seed0 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        got = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = got.stdout.strip().splitlines()
        if got.returncode != 0 or not lines:
            print("seed %d failed:\n%s" % (seed, got.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.4g" % (name, m["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)
    print("%-22s %14s %8s %8s %8s" % ("metric", "median", "spread", "bound",
                                       "ok(<1/3)"))
    for m in spec["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-22s %14.4f %8.4f %8.2f %8s" % (
            m["name"], med, spread, m["bound"],
            "yes" if spread < m["bound"] / 3 else "NO"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
