// Fixed-work service benchmark for the pardfs ShardRouter.
//
//   perfbench --workload <social_churn|sharded_reads|map_churn> --seed <n>
//             --seconds <n> --trace <0|1> [--corrupt]
//
// --trace 0: one live run with tracing off; prints the end-to-end metrics.
// --trace 1: the same live run, then a traced live run on the same stream,
//            then the per-layer ledger (batch replay + isolated builds);
//            prints the per-layer metrics.
// Both modes run every correctness check and print, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. --corrupt flips one
// parent entry of the served forest before it is checked, to show the check
// catches it (the run then reports correct: false).
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "ledger.hpp"
#include "live.hpp"
#include "pram/parallel.hpp"
#include "tree/validation.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::BuildTimes;
using perfbench::LiveResult;
using perfbench::Workload;
using pardfs::Vertex;
using pardfs::kNullVertex;

// Cold constructions per run; setup_s is their median.
constexpr int kSetupReps = 21;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <social_churn|sharded_reads|map_churn>"
               " --seed <n> --seconds <n> --trace <0|1> [--corrupt]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stoi(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!perfbench::is_workload(a.workload)) usage("unknown or missing --workload");
  if (a.seconds < 1 || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Host and build facts, so figures from different machines or builds are
// never mistaken for a regression.
void print_context(const Args& a, const Workload& w) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::printf(
      "context: nproc=%d OMP_NUM_THREADS=%s omp_team=%d simd=%s build=%s compiler=\"%s\" "
      "workload=%s seed=%llu seconds=%d replays=%zu updates_per_replay=%zu warmup=%zu window=%zu readers=%d "
      "shards=%zu serve_cuts=%d\n",
      online_cpus(), omp != nullptr ? omp : "unset", pardfs::pram::num_threads(),
      pardfs::simd::level_name(pardfs::simd::active_level()), PERFBENCH_BUILD_TYPE,
      compiler().c_str(), w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      w.stream_seeds.size(), w.stream_length - w.warmup, w.warmup, w.window, w.readers, w.config.num_shards,
      w.config.serve_cuts ? 1 : 0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  double update_tput, ack_p50_us, ack_p99_us, read_qps, setup_s, rss_mb;
};

// The entries of a per-replay series (`per` each) after the first `skip`
// replays.
std::vector<double> after(const std::vector<double>& v, std::size_t skip, std::size_t per = 1) {
  return {v.begin() + static_cast<std::ptrdiff_t>(std::min(skip * per, v.size())), v.end()};
}

// Rates and ack percentiles are the better quartile of the replays' own
// figures: the upper quartile of update_tput and read_qps, the lower
// quartile of each replay's ack p50 and p99 (make_workload gives each replay
// enough acks for ten samples beyond its p99 whenever the run has that many
// in all). The shared host slows whole stretches of a run by up to 2.6x,
// and the default worker team turns a stolen vCPU into a stalled barrier;
// the better quartile still reads a replay the host left alone whenever a
// quarter of them were, where the median needs half. Set-up time and peak
// RSS are medians. `skip` leaves out the first replays, to compare with a
// traced pass over the rest.
EndToEnd end_to_end(const LiveResult& r, std::size_t skip = 0) {
  const std::size_t reps = r.rep_wall_s.size();
  return {perfbench::quantile(after(r.rep_update_tput, skip), 0.75),
          perfbench::quantile(after(r.rep_ack_p50_us, skip), 0.25),
          perfbench::quantile(after(r.rep_ack_p99_us, skip), 0.25),
          perfbench::quantile(after(r.rep_read_qps, skip), 0.75),
          perfbench::quantile(after(r.setup_s, skip, r.setup_s.size() / reps), 0.50),
          perfbench::quantile(after(r.rep_rss_mb, skip), 0.50)};
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {{"update_tput", e.update_tput, "updates/s"},
          {"ack_p50_us", e.ack_p50_us, "us"},
          {"ack_p99_us", e.ack_p99_us, "us"},
          {"read_qps", e.read_qps, "queries/s"},
          {"setup_s", e.setup_s, "s"},
          {"rss_mb", e.rss_mb, "MiB"}};
}

void print_live(const char* label, const LiveResult& r, const EndToEnd& e) {
  const std::size_t n = r.ack_us.size();
  const std::size_t per_rep = n / r.rep_wall_s.size();
  std::printf("%s: %zu replays of the stream; rates, ack p50 and p99 are the better quartile "
              "of the replays' own; %zu ack samples (%zu beyond each replay's p99); setup "
              "median of %zu cold constructions; peak RSS %s; CPU steal %.1f%%\n",
              label, r.rep_wall_s.size(), n,
              per_rep - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(per_rep))),
              r.setup_s.size(),
              r.rss_per_replay ? "per replay (mark reset before each)" : "of the run so far",
              100.0 * r.steal_frac);
  auto row = [](const char* what, const std::vector<double>& v) {
    std::printf("  per replay %-10s", what);
    for (const double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  };
  row("wall_s", r.rep_wall_s);
  row("updates/s", r.rep_update_tput);
  row("queries/s", r.rep_read_qps);
  row("ack p50 us", r.rep_ack_p50_us);
  row("ack p99 us", r.rep_ack_p99_us);
  row("peak MiB", r.rep_rss_mb);
  for (const Metric& m : end_to_end_metrics(e)) {
    std::printf("  %-12s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// A non-root alive vertex whose parent entry the self-test detaches.
Vertex flip_target(const std::vector<Vertex>& parent) {
  for (Vertex v = 0; v < static_cast<Vertex>(parent.size()); ++v) {
    if (parent[static_cast<std::size_t>(v)] != kNullVertex) return v;
  }
  return kNullVertex;
}

// The checker's own check: a forest with one parent entry detached (its
// subtree becomes a second tree of the same component) must be refused.
bool self_test(const perfbench::Stream& st, std::vector<Vertex> parent) {
  const Vertex v = flip_target(parent);
  if (v == kNullVertex) return false;
  parent[static_cast<std::size_t>(v)] = kNullVertex;
  const auto res = pardfs::validate_dfs_forest(st.final_graph, parent);
  std::printf("self-test: parent[%d] detached -> validate_dfs_forest %s%s%s\n", v,
              res.ok ? "ACCEPTS it (checker broken)" : "rejects it", res.ok ? "" : ": ",
              res.reason.c_str());
  return !res.ok;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("failed_frac %.6g (%llu of %llu operations); correct: %s\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), correct ? "yes" : "NO");
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::fflush(stdout);
  std::cout << os.str() << std::endl;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// Checks of one live run. Every update and every sampled read is one
// attempted operation; the forest check counts as one more.
void check_live(const char* label, const LiveResult& r, Tally& t) {
  const std::uint64_t updates = r.updates_submitted;
  t.attempted += updates + r.read_checks;
  t.failed += r.status_acks + r.read_check_failures;
  if (r.status_acks + r.read_check_failures != 0) {
    t.correct = false;
    std::printf("CHECK FAILED: %s: %llu acks were not versions, %llu/%llu sampled reads broke "
                "a snapshot invariant\n",
                label, static_cast<unsigned long long>(r.status_acks),
                static_cast<unsigned long long>(r.read_check_failures),
                static_cast<unsigned long long>(r.read_checks));
  }
  t.check(r.forest_ok, std::string(label) + ": served forest vs mirror: " + r.forest_reason);
  std::printf("checks (%s): %llu/%llu acks are versions; %llu sampled reads pass; forest %s\n",
              label, static_cast<unsigned long long>(updates - r.status_acks),
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(r.read_checks - r.read_check_failures),
              r.forest_ok ? "valid" : "INVALID");
}

void print_builds(const char* state, const BuildTimes& b) {
  std::printf("  builds on %-5s state: index %.1f us (serial %.1f us, %.2f MiB), D %.1f us "
              "(%.2f MiB, probe %.1f ns/source), list_rank(%zu) %.1f us, find_cuts %.1f us, "
              "static_dfs %.1f us\n",
              state, b.index_build_us, b.index_build_serial_us, b.index_heap_mb,
              b.oracle_build_us, b.oracle_heap_mb, b.probe_ns, b.list_length, b.list_rank_us,
              b.find_cuts_us, b.static_dfs_us);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload w = perfbench::make_workload(args.workload, args.seed, args.seconds);
  print_context(args, w);

  perfbench::LiveOptions opt;
  opt.seed = args.seed;
  opt.setups = kSetupReps;
  LiveResult live = perfbench::run_live(w, opt);
  const EndToEnd e = end_to_end(live);
  print_live("untraced run", live, e);

  // Forest, batches and the ledger belong to the last replay's stream.
  const perfbench::Stream last = perfbench::make_stream(w, w.stream_seeds.size() - 1);
  Tally tally;
  if (args.corrupt) {
    const Vertex v = flip_target(live.forest);
    if (v != kNullVertex) {
      live.forest[static_cast<std::size_t>(v)] = kNullVertex;
      const auto res = pardfs::validate_dfs_forest(last.final_graph, live.forest);
      live.forest_ok = res.ok;
      live.forest_reason = res.ok ? "ok" : res.reason;
      std::printf("--corrupt: detached parent[%d] of the served forest\n", v);
    }
  }
  check_live("untraced", live, tally);
  tally.check(self_test(last, live.forest), "self-test: a detached parent entry went unnoticed");

  if (args.trace == 0) {
    print_result(tally.correct, tally.attempted, tally.failed, end_to_end_metrics(e));
    return 0;
  }

  // ---- traced run + ledger --------------------------------------------------
  // The traced pass replays the later half of the streams (the last one is
  // the ledger's), and its end-to-end numbers are compared with the
  // untraced run's over the same streams.
  perfbench::LiveOptions topt = opt;
  topt.traced = true;
  topt.setups = 1;
  topt.first_stream = w.stream_seeds.size() / 2;
  const LiveResult traced = perfbench::run_live(w, topt);
  const EndToEnd te = end_to_end(traced);
  const EndToEnd ue_same = end_to_end(live, topt.first_stream);
  check_live("traced", traced, tally);

  const auto batches = perfbench::recover_batches(w, last, live);
  const perfbench::ReplayResult rep = perfbench::replay_batches(w, last, batches);
  // The router's forest is byte-identical at any shard count, so the
  // per-shard replay must reproduce the served forest exactly.
  tally.check(rep.parent == live.forest, "replayed parent array differs from the served forest");
  tally.check(rep.route_mismatches == 0,
              std::to_string(rep.route_mismatches) +
                  " replayed batches landed on another (shard, version) than the live run's");
  const auto v = pardfs::validate_dfs_forest(last.final_graph, rep.parent);
  tally.check(v.ok, "replayed forest: " + v.reason);

  std::vector<Vertex> start;  // the forest the router's constructor builds
  {
    const pardfs::DynamicDfs d0(last.initial);
    start.assign(d0.parent().begin(), d0.parent().end());
  }
  const BuildTimes b0 = perfbench::time_builds(last.initial, start, args.seed);
  const BuildTimes b1 = perfbench::time_builds(last.final_graph, rep.parent, args.seed);

  const double updates = static_cast<double>(std::max<std::size_t>(rep.timed_updates, 1));
  const double nbatches = static_cast<double>(std::max<std::size_t>(rep.timed_batches, 1));
  // The replayed batches are the last replay's, so the ledger reconciles
  // with that replay's wall time.
  const double wall = live.rep_wall_s.back();
  const double service_share = 1.0 - rep.busiest_writer_s / wall;
  const auto& st = live.stats;
  const std::vector<Metric> layers = {
      {"service.shard_router.batch_size_mean",
       static_cast<double>(st.updates_applied) / static_cast<double>(std::max<std::uint64_t>(st.batches, 1)),
       "count"},
      {"service.shard_router.max_batch", static_cast<double>(st.max_batch), "count"},
      {"service.shard_router.migrations", static_cast<double>(st.shard_migrations), "count"},
      {"service.shard_router.cross_shard_inserts", static_cast<double>(st.cross_shard_inserts), "count"},
      {"service.shard_router.service_share", service_share, "ratio"},
      {"service.update_queue.depth_mean",
       traced.queue_depth_sum / static_cast<double>(std::max<std::size_t>(traced.ack_us.size(), 1)),
       "count"},
      {"service.journal.record_us_p50", perfbench::quantile(rep.record_us, 0.5), "us"},
      {"service.journal.checkpoint_us_p50", perfbench::quantile(rep.checkpoint_us, 0.5), "us"},
      {"service.journal.checkpoints", static_cast<double>(rep.policy_checkpoints), "count"},
      {"service.read.capacity_wait_frac",
       traced.reader_wall_s > 0 ? traced.capacity_wait_s / traced.reader_wall_s : 0.0, "ratio"},
      {"service.read.query_ns", traced.query_ns, "ns"},
      {"core.dynamic_dfs.apply_batch_us_p50", perfbench::quantile(rep.apply_us, 0.5), "us"},
      {"core.dynamic_dfs.apply_batch_us_p99", perfbench::quantile(rep.apply_us, 0.99), "us"},
      {"core.dynamic_dfs.structural_frac", static_cast<double>(rep.structural) / updates, "ratio"},
      {"core.dynamic_dfs.index_rebuilds_per_update",
       static_cast<double>(rep.index_rebuilds) / updates, "count"},
      {"core.dynamic_dfs.rebases_per_update", static_cast<double>(rep.base_rebuilds) / updates,
       "count"},
      {"core.dynamic_dfs.rounds_per_batch", static_cast<double>(rep.reroot_rounds) / nbatches,
       "count"},
      {"core.dynamic_dfs.traversed_per_update",
       static_cast<double>(rep.vertices_traversed) / updates, "count"},
      {"core.adjacency_oracle.build_us", b1.oracle_build_us, "us"},
      {"core.adjacency_oracle.probe_ns", b1.probe_ns, "ns"},
      {"core.adjacency_oracle.heap_mb", b1.oracle_heap_mb, "MiB"},
      {"core.articulation.find_cuts_us", b1.find_cuts_us, "us"},
      {"tree.tree_index.build_us", b1.index_build_us, "us"},
      {"tree.tree_index.build_serial_us", b1.index_build_serial_us, "us"},
      {"tree.tree_index.heap_mb", b1.index_heap_mb, "MiB"},
      {"pram.list_ranking.rank_us", b1.list_rank_us, "us"},
      {"baseline.static_dfs.us", b1.static_dfs_us, "us"},
  };

  std::printf("== ledger: %s ==\n", w.name.c_str());
  std::printf("  replays %zu..%zu of %zu, both passes\n", topt.first_stream + 1,
              w.stream_seeds.size(), w.stream_seeds.size());
  std::printf("  %-12s %14s %14s %9s\n", "end-to-end", "untraced", "traced", "overhead");
  const auto ue = end_to_end_metrics(ue_same), tr = end_to_end_metrics(te);
  for (std::size_t i = 0; i < ue.size(); ++i) {
    std::printf("  %-12s %14.4f %14.4f %+8.2f%%  %s\n", ue[i].name.c_str(), ue[i].value,
                tr[i].value, 100.0 * (tr[i].value - ue[i].value) / ue[i].value,
                ue[i].unit.c_str());
  }
  std::printf("  (the traced run constructs each replay's router once, in a process that "
              "already ran the untraced pass)\n");
  std::printf("  reconciliation: wall %.4f s = busiest writer's sum of apply_batch and "
              "migration %.4f s (%.1f%%; %zu timed batches over %zu shard(s), %zu merges "
              "migrating for %.4f s in all) + service %.4f s (service_share %.4f)\n",
              wall, rep.busiest_writer_s, 100.0 * rep.busiest_writer_s / wall,
              rep.timed_batches, w.config.num_shards, rep.migrations, rep.migrate_s,
              wall - rep.busiest_writer_s, service_share);
  print_builds("start", b0);
  print_builds("end", b1);
  for (const Metric& m : layers) {
    std::printf("  %-45s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(tally.correct, tally.attempted, tally.failed, layers);
  return 0;
}
