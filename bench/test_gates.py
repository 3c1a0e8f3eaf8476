#!/usr/bin/env python3
"""Unit tests for bench/gates.py on synthetic google-benchmark JSON.

Run: python3 bench/test_gates.py (registered as the `bench_gates` ctest).
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gates  # noqa: E402

DYN = "BM_DynamicUpdate/32768"
STATIC = "BM_StaticRecompute/32768"
SCALAR = "BM_OracleProbe/single_scalar/32768"
SIMD = "BM_OracleProbe/batch_simd/32768"
READS_1 = "BM_ShardedReadThroughput/1/4/real_time"
READS_4 = "BM_ShardedReadThroughput/4/4/real_time"
RECOVERY = "BM_ShardRecovery/4/iterations:1/real_time"
BATCH = "BM_BatchUpdate_DynamicMap/threads:1/n:16384/real_time"
REBUILD = "BM_StaticRebuild_DynamicMap/16384"
SOCIAL_BATCH = "BM_BatchUpdate_SocialMix/threads:1/n:32768/real_time"
SOCIAL_REBUILD = "BM_StaticRebuild_SocialMix/32768"


def run(name, real_time, time_unit="us", **counters):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": real_time, "time_unit": time_unit, **counters}


def median(name, real_time, **counters):
    return {"name": name + "_median", "run_name": name,
            "run_type": "aggregate", "aggregate_name": "median",
            "real_time": real_time, "time_unit": "us", **counters}


def healthy():
    """File name -> benchmark rows; every gate passes on this set."""
    return {
        "BENCH_update.json": [run(DYN, 2000.0), run(STATIC, 3500.0)],
        "BENCH_oracle.json": [run(SCALAR, 40.0, "ns"),
                              run(SIMD, 20.0, "ns", avx2=1)],
        "BENCH_update_obsgate.json": [run(DYN, 2020.0)],
        "BENCH_update_nometrics.json": [run(DYN, 2000.0)],
        "BENCH_service.json": [
            run(READS_1, 1.0, "ms", items_per_second=3e6),
            run(READS_4, 1.0, "ms", items_per_second=8e6),
            run(RECOVERY, 900.0, "ms", recoveries=4, recovery_p99_us=3000.0,
                steady_batch_p99_us=800.0),
        ],
        # A 1.2 ms batch against a 1 ms rebuild: 1.2x; social_mix 0.7x.
        "BENCH_parallel.json": [run(BATCH, 9.6, "ms", batch_us=1200.0),
                                run(REBUILD, 1000.0),
                                run(SOCIAL_BATCH, 72.0, "ms", batch_us=9000.0),
                                run(SOCIAL_REBUILD, 12.5, "ms")],
    }


def find(rows, name):
    return next(r for r in rows if r["run_name"] == name)


# Per gate: its file, a change that breaks its bound, and the benchmark whose
# removal leaves it without data.
REGRESSIONS = {
    "update": ("BENCH_update.json",
               lambda rows: find(rows, DYN).update(real_time=3000.0), DYN),
    "probe": ("BENCH_oracle.json",
              lambda rows: find(rows, SIMD).update(real_time=35.0), SIMD),
    "obs_overhead": ("BENCH_update_obsgate.json",
                     lambda rows: find(rows, DYN).update(real_time=2080.0),
                     DYN),
    "shard_scaling": ("BENCH_service.json",
                      lambda rows: find(rows, READS_4).update(
                          items_per_second=4e6), READS_4),
    "recovery": ("BENCH_service.json",
                 lambda rows: find(rows, RECOVERY).update(
                     recovery_p99_us=8000.0), RECOVERY),
    # Cap off: the batches run the round machinery, 5x a rebuild each.
    "batch_cap": ("BENCH_parallel.json",
                  lambda rows: find(rows, BATCH).update(batch_us=5000.0),
                  BATCH),
    # Each vertex insert pays its own reroot and rebuild: 2.6x a rebuild.
    "batch_cap_social": ("BENCH_parallel.json",
                         lambda rows: find(rows, SOCIAL_BATCH).update(
                             batch_us=32500.0), SOCIAL_BATCH),
}


class GatesTest(unittest.TestCase):
    def judge(self, files, cpus=4):
        """(exit code, {gate name: verdict word}) of gates.py on `files`."""
        with tempfile.TemporaryDirectory() as d:
            for name, rows in files.items():
                with open(os.path.join(d, name), "w") as f:
                    json.dump({"context": {"num_cpus": cpus},
                               "benchmarks": rows}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = gates.main([d])
        verdicts = {}
        for line in out.getvalue().splitlines():
            _, name, verdict = line.split()[:3]
            verdicts[name] = verdict
        self.assertEqual(list(verdicts), [g.name for g in gates.GATES])
        return code, verdicts

    def test_every_gate_passes_on_healthy_data(self):
        code, verdicts = self.judge(healthy())
        self.assertEqual(code, 0)
        self.assertEqual(set(verdicts.values()), {"PASS"})

    def test_each_gate_fails_on_its_regression(self):
        for gate, (file, regress, _) in REGRESSIONS.items():
            with self.subTest(gate=gate):
                files = healthy()
                regress(files[file])
                code, verdicts = self.judge(files)
                self.assertEqual(code, 1)
                self.assertEqual(verdicts.pop(gate), "FAIL")
                self.assertEqual(set(verdicts.values()), {"PASS"})

    def test_each_gate_reports_missing_benchmark(self):
        for gate, (file, _, bench) in REGRESSIONS.items():
            with self.subTest(gate=gate):
                files = healthy()
                files[file] = [r for r in files[file]
                               if r["run_name"] != bench]
                code, verdicts = self.judge(files)
                self.assertEqual(code, 2)
                self.assertEqual(verdicts[gate], "MISSING")

    def test_missing_file_is_missing_data(self):
        files = healthy()
        del files["BENCH_update_nometrics.json"]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 2)
        self.assertEqual(verdicts["obs_overhead"], "MISSING")

    def test_a_failure_does_not_hide_later_rows(self):
        files = healthy()
        REGRESSIONS["update"][1](files["BENCH_update.json"])
        del files["BENCH_oracle.json"]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 1)
        self.assertEqual(verdicts["update"], "FAIL")
        self.assertEqual(verdicts["probe"], "MISSING")
        self.assertEqual(verdicts["recovery"], "PASS")

    def test_shard_scaling_skips_on_the_recorded_cpu_count(self):
        files = healthy()
        REGRESSIONS["shard_scaling"][1](files["BENCH_service.json"])
        # A larger checking host must not matter: the run recorded 2 CPUs.
        with mock.patch("os.cpu_count", return_value=64):
            code, verdicts = self.judge(files, cpus=2)
        self.assertEqual(code, 0)
        self.assertEqual(verdicts["shard_scaling"], "SKIP")

    def test_probe_skips_without_avx2(self):
        files = healthy()
        REGRESSIONS["probe"][1](files["BENCH_oracle.json"])
        find(files["BENCH_oracle.json"], SIMD)["avx2"] = 0
        code, verdicts = self.judge(files)
        self.assertEqual(code, 0)
        self.assertEqual(verdicts["probe"], "SKIP")

    def test_recovery_without_recoveries_is_missing_data(self):
        files = healthy()
        find(files["BENCH_service.json"], RECOVERY)["recoveries"] = 0
        code, verdicts = self.judge(files)
        self.assertEqual(code, 2)
        self.assertEqual(verdicts["recovery"], "MISSING")

    def test_bounds_and_directions(self):
        # At the bound: >= and <= pass, the strict < of recovery fails.
        files = healthy()
        find(files["BENCH_service.json"], READS_4)["items_per_second"] = 4.5e6
        find(files["BENCH_service.json"], RECOVERY)["recovery_p99_us"] = 8000.0
        code, verdicts = self.judge(files)
        self.assertEqual(code, 1)
        self.assertEqual(verdicts["shard_scaling"], "PASS")
        self.assertEqual(verdicts["recovery"], "FAIL")

    def test_batch_cap_judges_the_per_batch_counter(self):
        files = healthy()
        bound = gates.BATCH_CAP_BOUND
        batch = find(files["BENCH_parallel.json"], BATCH)
        batch["batch_us"] = 1000.0 * bound
        code, verdicts = self.judge(files)
        self.assertEqual(code, 0)
        self.assertEqual(verdicts["batch_cap"], "PASS")
        batch["batch_us"] = 1000.0 * bound + 0.1
        code, verdicts = self.judge(files)
        self.assertEqual(code, 1)
        self.assertEqual(verdicts["batch_cap"], "FAIL")
        # The replay's total real time is not the per-batch figure.
        del batch["batch_us"]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 2)
        self.assertEqual(verdicts["batch_cap"], "MISSING")

    def test_batch_cap_reports_a_missing_rebuild_row(self):
        files = healthy()
        files["BENCH_parallel.json"] = [
            r for r in files["BENCH_parallel.json"] if r["run_name"] != REBUILD]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 2)
        self.assertEqual(verdicts["batch_cap"], "MISSING")

    def test_batch_cap_social_reports_a_missing_rebuild_row(self):
        files = healthy()
        files["BENCH_parallel.json"] = [
            r for r in files["BENCH_parallel.json"]
            if r["run_name"] != SOCIAL_REBUILD]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 2)
        self.assertEqual(verdicts["batch_cap_social"], "MISSING")
        self.assertEqual(verdicts["batch_cap"], "PASS")

    def test_median_is_preferred_over_the_single_run(self):
        files = healthy()
        # Repetitions: the iterations are slow, the median is healthy.
        files["BENCH_update_obsgate.json"] = [
            run(DYN, 2500.0), run(DYN, 2500.0), median(DYN, 2010.0)]
        files["BENCH_update_nometrics.json"] = [
            run(DYN, 1500.0), median(DYN, 2000.0), run(DYN, 1500.0)]
        code, verdicts = self.judge(files)
        self.assertEqual(code, 0)
        self.assertEqual(verdicts["obs_overhead"], "PASS")
        files["BENCH_update_obsgate.json"][2]["real_time"] = 2100.0
        code, verdicts = self.judge(files)
        self.assertEqual(code, 1)
        self.assertEqual(verdicts["obs_overhead"], "FAIL")


if __name__ == "__main__":
    unittest.main()
