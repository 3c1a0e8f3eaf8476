#!/usr/bin/env bash
# Build (Release) and run the perf-trajectory benchmarks, emitting
# machine-readable results next to the repo root:
#   BENCH_update.json      — E1, per-update cost (bench_update)
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
#                            aligned-CSR rebuild reuse (bench_oracle)
#
# Usage: bench/run_bench.sh [--smoke] [build-dir] [min-time-seconds]
#   build-dir defaults to <repo>/build-bench; min-time to 0.1 (raise for
#   stable numbers, lower for a CI smoke run).
#   --smoke additionally runs a quick pardfs_fuzz soak against the Release
#   build (and proves the corruption hook still fails loudly), so the bench
#   toolchain and the fuzz gauntlet are exercised by one CI invocation.
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
  # {core, service, sharded}, differential-checked per batch (the sharded
  # entry byte-compares an S-shard router against a 1-shard reference).
  # Then the self-test: an injected corruption must make the harness fail
  # (exit 1), or the oracle has gone blind.
  "$BUILD/tools/pardfs_fuzz" --soak=4 --batches=8
  # One deeper sharded leg at 16 shards (the acceptance shard count).
  "$BUILD/tools/pardfs_fuzz" --entry=sharded --shards=16 --batches=12
  # One leg with SIMD dispatch pinned to the scalar reference: the engine
  # must be byte-identical either way, so this catches any divergence the
  # unit differentials missed.
  "$BUILD/tools/pardfs_fuzz" --soak=2 --batches=8 --force-scalar
  if "$BUILD/tools/pardfs_fuzz" --seed=1 --scenario=grid --entry=service \
      --batches=4 --corrupt-at=2 > /dev/null 2>&1; then
    echo "fuzz corruption self-test FAILED: injected corruption not caught" >&2
    exit 1
  fi
  echo "fuzz smoke soak passed"
fi

"$BUILD/bench/bench_update" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_update.json"
# Ratio guard: the dynamic update path must stay >= 1.3x faster than the
# static recompute at n = 2^15 (the epoch-tax regression tripwire).
python3 "$ROOT/bench/check_update_ratio.py" "$ROOT/BENCH_update.json" --min-ratio 1.3

# Observability overhead gate: BM_DynamicUpdate/32768 from the instrumented
# build vs a twin -DPARDFS_NO_METRICS=ON build, medians of 5 repetitions;
# the metrics hot path may cost at most 3% (DESIGN.md §11 budget).
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
python3 "$ROOT/bench/check_obs_overhead.py" \
  "$ROOT/BENCH_update_obsgate.json" "$ROOT/BENCH_update_nometrics.json"
"$BUILD/bench/bench_preprocess" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_preprocess.json"
# PARDFS_OBS_DUMP_DIR makes bench_service also drop the obs registry page
# (BENCH_service_metrics.prom) and the phase trace (BENCH_service_trace.json,
# loadable at chrome://tracing) next to the bench JSON.
PARDFS_OBS_DUMP_DIR="$ROOT" "$BUILD/bench/bench_service" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_service.json"
# Scaling guard: 4 shards must serve >= 1.5x the 1-shard read QPS with 4
# readers (skips with a warning on < 4-CPU machines).
python3 "$ROOT/bench/check_shard_scaling.py" "$ROOT/BENCH_service.json" \
  --shards 4 --readers 4 --min-ratio 1.5
# Failover guard (E18): p99 journal-replay recovery latency must stay under
# 10x the steady-state batch-cycle p99 at 4 shards, n = 2^15.
python3 "$ROOT/bench/check_recovery.py" "$ROOT/BENCH_service.json" \
  --shards 4 --max-ratio 10.0
"$BUILD/bench/bench_parallel" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_parallel.json"
"$BUILD/bench/bench_oracle" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out_format=json --benchmark_out="$ROOT/BENCH_oracle.json"
# Ratio guard: batched dispatched probes must stay >= 1.3x faster than the
# scalar single-probe reference at n = 2^15 (warns and skips on machines
# without AVX2 — see check_probe_ratio.py).
python3 "$ROOT/bench/check_probe_ratio.py" "$ROOT/BENCH_oracle.json" --min-ratio 1.3

echo "wrote $ROOT/BENCH_update.json, $ROOT/BENCH_preprocess.json," \
     "$ROOT/BENCH_service.json (+ _metrics.prom, _trace.json)," \
     "$ROOT/BENCH_parallel.json, $ROOT/BENCH_oracle.json and" \
     "$ROOT/BENCH_update_nometrics.json"
