#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 --seconds 30 [--workload social_churn ...]

Runs perfbench/run.py once per seed (1..runs) for each workload and prints,
per end-to-end metric, the median and the inter-quartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound
from BENCHMARK.json. A benchmark is steady when every spread is well below
its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d failed" % (w, seed))
            result = json.loads(out.stdout.strip().split("\n")[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, float("nan"))
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO NOISY")
            print("  %-13s %-12s median %14.6g  spread %6.3f  bound %.2f  %s"
                  % (w, name, med, spread, bound, flag), flush=True)


if __name__ == "__main__":
    main()
