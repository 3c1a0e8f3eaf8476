#!/usr/bin/env bash
# Build (Release) and run the perf-trajectory benchmarks, emitting
# machine-readable results next to the repo root:
#   BENCH_update.json      — E1, per-update cost (bench_update); with
#                            BENCH_update_obsgate.json and
#                            BENCH_update_nometrics.json, BM_DynamicUpdate/32768
#                            from this build and a PARDFS_NO_METRICS twin
#   BENCH_preprocess.json  — E2a, D + tree-index build (bench_preprocess)
#   BENCH_service.json     — E-service, snapshot-serving layer: read QPS vs
#                            reader threads, ack latency p50/p99, writer
#                            coalescing (bench_service)
#   BENCH_parallel.json    — E12, engine thread scaling: batch-update latency
#                            at 1/2/4/8 workers on adversarial_star and
#                            social_mix, plus the per-round serial-vs-team
#                            rows behind kParallelRoundWork (bench_parallel)
#   BENCH_oracle.json      — E15, SIMD probe hot path: batched dispatched
#                            probes vs the scalar single-probe reference,
#                            aligned-CSR rebuild reuse (bench_oracle; three
#                            processes, merged with a "process" tag per row)
#
# Usage: bench/run_bench.sh [--smoke] [build-dir] [min-time-seconds]
#   build-dir defaults to <repo>/build-bench; min-time to 0.1 (raise for
#   stable numbers, lower for a CI smoke run).
#   bench/gates.py judges the results last: exit 1 if any bound in its table
#   is broken, 2 if a gate is missing data.
#   --smoke additionally runs a quick pardfs_fuzz soak against the Release
#   build (and proves the corruption hook still fails loudly), so the bench
#   toolchain and the fuzz gauntlet are exercised by one CI invocation, and
#   runs bench_fault_tolerant (E3), bench_amortized (E10), bench_rounds (E7)
#   and bench_ablation (E8) at the given min-time without writing a
#   BENCH_*.json: no gate reads them, but they must keep building and running.
set -euo pipefail

SMOKE=0
ARGS=()
for arg in "$@"; do
  if [[ "$arg" == "--smoke" ]]; then SMOKE=1; else ARGS+=("$arg"); fi
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ARGS[0]:-$ROOT/build-bench}"
MIN_TIME="${ARGS[1]:-0.1}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPARDFS_BUILD_BENCH=ON -DPARDFS_BUILD_TESTS=OFF -DPARDFS_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j "$(nproc)"

if [[ "$SMOKE" == 1 ]]; then
  # Quick fuzz soak: 4 seeds x {random, power_law, grid, dynamic_map} x
  # {core, router at 1 and 4 shards, 4-shard router under 3 fault plans},
  # differential-checked per batch (the router entry byte-compares an
  # S-shard router against a 1-shard reference).
  # Then the self-test: an injected corruption must make the harness fail
  # (exit 1), or the oracle has gone blind.
  "$BUILD/tools/pardfs_fuzz" --soak=4 --batches=8
  # One deeper router leg at 16 shards (the acceptance shard count).
  "$BUILD/tools/pardfs_fuzz" --entry=router --shards=16 --batches=12
  # One leg with SIMD dispatch pinned to the scalar reference: the engine
  # must be byte-identical either way, so this catches any divergence the
  # unit differentials missed.
  "$BUILD/tools/pardfs_fuzz" --soak=2 --batches=8 --force-scalar
  if "$BUILD/tools/pardfs_fuzz" --seed=1 --scenario=grid --entry=router \
      --shards=1 --batches=4 --corrupt-at=2 > /dev/null 2>&1; then
    echo "fuzz corruption self-test FAILED: injected corruption not caught" >&2
    exit 1
  fi
  echo "fuzz smoke soak passed"
  "$BUILD/bench/bench_fault_tolerant" --benchmark_min_time="$MIN_TIME"
  "$BUILD/bench/bench_amortized" --benchmark_min_time="$MIN_TIME"
  "$BUILD/bench/bench_rounds" --benchmark_min_time="$MIN_TIME"
  "$BUILD/bench/bench_ablation" --benchmark_min_time="$MIN_TIME"
fi

"$BUILD/bench/bench_update" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_update.json"

# The obs_overhead gate's inputs: BM_DynamicUpdate/32768 from this build and
# from a twin -DPARDFS_NO_METRICS=ON build, 5 repetitions each.
cmake -B "$BUILD-nometrics" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPARDFS_NO_METRICS=ON \
  -DPARDFS_BUILD_BENCH=ON -DPARDFS_BUILD_TESTS=OFF -DPARDFS_BUILD_EXAMPLES=OFF
cmake --build "$BUILD-nometrics" -j "$(nproc)" --target bench_update
"$BUILD/bench/bench_update" \
  --benchmark_filter='^BM_DynamicUpdate/32768$' \
  --benchmark_min_time="$MIN_TIME" --benchmark_repetitions=5 \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_update_obsgate.json"
"$BUILD-nometrics/bench/bench_update" \
  --benchmark_filter='^BM_DynamicUpdate/32768$' \
  --benchmark_min_time="$MIN_TIME" --benchmark_repetitions=5 \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_update_nometrics.json"
"$BUILD/bench/bench_preprocess" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_preprocess.json"
# PARDFS_OBS_DUMP_DIR makes bench_service also drop the obs registry page
# (BENCH_service_metrics.prom) and the phase trace (BENCH_service_trace.json,
# loadable at chrome://tracing) next to the bench JSON.
PARDFS_OBS_DUMP_DIR="$ROOT" "$BUILD/bench/bench_service" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_service.json"
"$BUILD/bench/bench_parallel" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_parallel.json"
# 5 repetitions: single runs of these rows are bimodal on a shared host.
# A process can also sit in one mode for all of its repetitions (both probe
# rows slow, 1.00x), so the probe gate reads three processes: the first runs
# every row, the other two the gate's rows, and gates.py takes the median of
# the per-process median ratios.
PROBE_ROWS='^BM_OracleProbe/(single_scalar|batch_simd)/32768$'
for process in 1 2 3; do
  filter=()
  if [[ "$process" != 1 ]]; then filter=(--benchmark_filter="$PROBE_ROWS"); fi
  "$BUILD/bench/bench_oracle" "${filter[@]}" \
    --benchmark_min_time="$MIN_TIME" --benchmark_repetitions=5 \
    --benchmark_out_format=json \
    --benchmark_out="$BUILD/bench_oracle.$process.json"
done
python3 "$ROOT/bench/gates.py" --merge "$ROOT/BENCH_oracle.json" \
  "$BUILD"/bench_oracle.{1,2,3}.json

echo "wrote $ROOT/BENCH_update.json (+ _obsgate.json, _nometrics.json)," \
     "$ROOT/BENCH_preprocess.json, $ROOT/BENCH_service.json" \
     "(+ _metrics.prom, _trace.json), $ROOT/BENCH_parallel.json and" \
     "$ROOT/BENCH_oracle.json"
# Judge every bound in bench/gates.py's table; the script exits with its code.
python3 "$ROOT/bench/gates.py" "$ROOT"
