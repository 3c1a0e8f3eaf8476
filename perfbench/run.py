#!/usr/bin/env python3
"""Build the service benchmark from source and run one workload.

    python3 perfbench/run.py --workload map_churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. The first call configures and builds the
pardfs library and the perfbench program into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild only what changed. Build output goes to
stderr, the program's report to stdout, whose last line is the JSON result.
Each workload runs in its own process, so its peak RSS is its own. The exit
code is non-zero if the build fails, the program fails or times out, or any
correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social_churn", "sharded_reads", "map_churn")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ (run from a full checkout)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_one(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % workload)
    if set(result) != RESULT_KEYS:
        fail("%s result has keys %s" % (workload, sorted(result)))
    print(json.dumps(result), flush=True)
    return result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one parent entry of the served forest before it is "
                         "checked; the run must then report correct: false")
    args = ap.parse_args()
    exe = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = all([run_one(exe, w, args) for w in workloads])
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
