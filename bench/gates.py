#!/usr/bin/env python3
"""The bench gates: every performance bound bench/run_bench.sh enforces.

Each row of GATES below is one claim, judged as the ratio of two values read
from the google-benchmark JSON files that run_bench.sh writes:

  update         the dynamic update must stay >= 1.3x faster than a static
                 recompute at n = 2^15: the epoch-tax tripwire (E1).
  probe          batched dispatched D probes must stay >= 1.3x faster than
                 the scalar single-probe reference at n = 2^15 (E15,
                 DESIGN.md §10); skipped when batch_simd ran without AVX2 (no
                 AVX2 on the machine, or PARDFS_FORCE_SCALAR set). The rows'
                 fast and slow modes are fixed per process, so run_bench.sh
                 runs bench_oracle as several processes and the gate reads
                 the median of the per-process ratios.
  obs_overhead   BM_DynamicUpdate/32768 from the instrumented build may be at
                 most 3% slower than from the -DPARDFS_NO_METRICS=ON twin
                 (DESIGN.md §11 budget; medians of the repetitions).
  shard_scaling  4 shards must serve >= 1.5x the 1-shard read QPS with 4
                 readers (E17); skipped when the run recorded fewer than 4
                 CPUs, where the readers time-share cores and the ratio is
                 noise.
  recovery       the 4-shard p99 journal-replay recovery latency must stay
                 under 10x the steady-state batch-cycle p99 (E18); a run
                 that injected no recoveries is a configuration error.
  batch_cap      one dynamic_map batch (batch_us of the 1-thread fixed
                 replay: its real time per replayed batch) may cost at most
                 BOUND times a from-scratch rebuild of the same graph
                 (static DFS + TreeIndex + D): the work cap of DESIGN.md §9
                 (E22).
  batch_cap_social  the same bound for one social_mix batch at n = 2^15,
                 whose batches carry vertex inserts: they join their
                 segment's combined reduction instead of each paying a
                 reroot and an index rebuild (E23).

A value is the `median` aggregate of its benchmark when the run has one, else
its single run. A gate's ratio is the median of its per-process ratios over
the processes of num's file (see --merge below); a file without process tags
is one process. The CPU count is the `context.num_cpus` the judged run
recorded, not the checking machine's. Every row is evaluated and printed.

Usage: gates.py DIR    (DIR holds the BENCH_*.json files)
Exit: 0 every gate passed or skipped, 1 any gate failed, else 2 when a gate
      is missing data.

       gates.py --merge OUT IN...
Writes the benchmark rows of the IN files (one google-benchmark JSON per
process) into OUT, each row tagged with "process": the IN file's index, and
OUT's context taken from the first IN file.
"""
import json
import operator
import os
import statistics
import sys
from typing import NamedTuple, Optional


class Value(NamedTuple):
    file: str
    bench: str  # the benchmark's run_name
    field: str = "real_time"  # real_time is read in microseconds


class Gate(NamedTuple):
    name: str
    num: Value
    den: Value
    op: str  # how num / den must compare with bound
    bound: float
    min_cpus: int = 0  # skip when the run recorded fewer CPUs
    skip_unless: Optional[Value] = None  # skip when this value is 0
    require: Optional[Value] = None  # missing data when this value is 0


UPDATE = "BENCH_update.json"
ORACLE = "BENCH_oracle.json"
SERVICE = "BENCH_service.json"
SIMD = "BM_OracleProbe/batch_simd/32768"
RECOVERY = "BM_ShardRecovery/4/iterations:1/real_time"
PARALLEL = "BENCH_parallel.json"

# batch_cap (EXPERIMENTS.md E22; Release, 4-vCPU Xeon, two sets of five
# interleaved runs each): the healthy build reads 0.85-1.36x, a build with
# the work cap switched off 2.33-4.07x. The bound sits between them.
# batch_cap_social shares it (E23; three interleaved full bench_parallel runs
# per build): the healthy build reads 0.63-0.91x, the build before vertex
# inserts joined the reduction 2.03-2.64x.
BATCH_CAP_BOUND = 1.8

GATES = [
    Gate("update",
         Value(UPDATE, "BM_StaticRecompute/32768"),
         Value(UPDATE, "BM_DynamicUpdate/32768"), ">=", 1.3),
    Gate("probe",
         Value(ORACLE, "BM_OracleProbe/single_scalar/32768"),
         Value(ORACLE, SIMD), ">=", 1.3,
         skip_unless=Value(ORACLE, SIMD, "avx2")),
    Gate("obs_overhead",
         Value("BENCH_update_obsgate.json", "BM_DynamicUpdate/32768"),
         Value("BENCH_update_nometrics.json", "BM_DynamicUpdate/32768"),
         "<=", 1.03),
    Gate("shard_scaling",
         Value(SERVICE, "BM_ShardedReadThroughput/4/4/real_time",
               "items_per_second"),
         Value(SERVICE, "BM_ShardedReadThroughput/1/4/real_time",
               "items_per_second"), ">=", 1.5, min_cpus=4),
    Gate("recovery",
         Value(SERVICE, RECOVERY, "recovery_p99_us"),
         Value(SERVICE, RECOVERY, "steady_batch_p99_us"), "<", 10.0,
         require=Value(SERVICE, RECOVERY, "recoveries")),
    Gate("batch_cap",
         Value(PARALLEL, "BM_BatchUpdate_DynamicMap/threads:1/n:16384/real_time",
               "batch_us"),
         Value(PARALLEL, "BM_StaticRebuild_DynamicMap/16384"), "<=",
         BATCH_CAP_BOUND),
    Gate("batch_cap_social",
         Value(PARALLEL, "BM_BatchUpdate_SocialMix/threads:1/n:32768/real_time",
               "batch_us"),
         Value(PARALLEL, "BM_StaticRebuild_SocialMix/32768"), "<=",
         BATCH_CAP_BOUND),
]

OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt}
TIME_SCALE_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


class MissingData(Exception):
    pass


def load(directory, name, cache):
    if name not in cache:
        path = os.path.join(directory, name)
        try:
            with open(path) as f:
                cache[name] = json.load(f)
        except OSError:
            raise MissingData(f"no {path}")
    return cache[name]


def processes(data):
    """The process tags of a merged file's rows, ascending ([0] if none)."""
    return sorted({b.get("process", 0) for b in data.get("benchmarks", [])}
                  or {0})


def lookup(data, bench, process):
    """Among `process`'s rows (an untagged row is process 0), the median
    aggregate of `bench` if present, else its single run."""
    median = single = None
    for b in data.get("benchmarks", []):
        if b.get("run_name", b["name"]) != bench:
            continue
        if b.get("process", 0) != process:
            continue
        if b.get("aggregate_name") == "median":
            median = b
        elif b.get("run_type") != "aggregate":
            single = b
    return median if median is not None else single


def read(directory, value, cache, process):
    row = lookup(load(directory, value.file, cache), value.bench, process)
    if row is None:
        raise MissingData(f"no {value.bench} of process {process} in "
                          f"{value.file}")
    if value.field == "real_time":
        return row["real_time"] * TIME_SCALE_US[row.get("time_unit", "ns")]
    if value.field not in row:
        raise MissingData(f"{value.bench} in {value.file} has no {value.field}")
    return row[value.field]


def judge(gate, directory, cache):
    """(exit code, message) for one row."""
    try:
        if gate.min_cpus:
            data = load(directory, gate.num.file, cache)
            cpus = data.get("context", {}).get("num_cpus")
            if cpus is None:
                raise MissingData(f"no context.num_cpus in {gate.num.file}")
            if cpus < gate.min_cpus:
                return 0, (f"SKIP  the run recorded {cpus} CPUs "
                           f"(< {gate.min_cpus})")
        runs = processes(load(directory, gate.num.file, cache))
        pairs = [(read(directory, gate.num, cache, p),
                  read(directory, gate.den, cache, p)) for p in runs]
        if gate.skip_unless and not read(directory, gate.skip_unless, cache,
                                         runs[0]):
            return 0, f"SKIP  {gate.skip_unless.field} = 0"
        if gate.require and not read(directory, gate.require, cache,
                                     runs[0]):
            raise MissingData(f"{gate.require.field} = 0 in "
                              f"{gate.require.bench}")
        for _, den in pairs:
            if den <= 0:
                raise MissingData(f"{gate.den.field} of {gate.den.bench} is "
                                  f"{den}")
    except MissingData as e:
        return 2, f"MISSING  {e}"
    ratios = [num / den for num, den in pairs]
    ratio = statistics.median(ratios)
    verdict = "PASS" if OPS[gate.op](ratio, gate.bound) else "FAIL"
    return (0 if verdict == "PASS" else 1), (
        f"{verdict}  {ratio:.3f}x (required {gate.op} {gate.bound:g}x)  "
        f"{gate.num.bench} {gate.num.field} / "
        f"{gate.den.bench} {gate.den.field} per process: "
        f"{', '.join(f'{num:.1f}/{den:.1f}' for num, den in pairs)}")


def merge(out, inputs):
    """Writes the rows of the per-process `inputs` into `out`, tagged."""
    merged = {"context": None, "benchmarks": []}
    for process, path in enumerate(inputs):
        with open(path) as f:
            data = json.load(f)
        if merged["context"] is None:
            merged["context"] = data.get("context", {})
        for b in data.get("benchmarks", []):
            merged["benchmarks"].append({**b, "process": process})
    with open(out, "w") as f:
        json.dump(merged, f, indent=2)


def main(argv):
    if len(argv) >= 3 and argv[0] == "--merge":
        merge(argv[1], argv[2:])
        return 0
    if len(argv) != 1:
        print("usage: gates.py DIR | gates.py --merge OUT IN...",
              file=sys.stderr)
        return 2
    cache = {}
    codes = set()
    width = max(len(gate.name) for gate in GATES)
    for gate in GATES:
        code, message = judge(gate, argv[0], cache)
        print(f"gates: {gate.name:<{width}} {message}")
        codes.add(code)
    return 1 if 1 in codes else max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
