// pardfs_stat — run a workload scenario against the serving stack (a
// ShardRouter; --shards=1 is the exact DfsService behavior) and print (or
// periodically re-print) the obs registry, as Prometheus exposition text or
// JSON; optionally dump the phase trace as chrome://tracing JSON. At the end
// a per-shard table (vertices, edges, version, updates, batches, queue
// depth, the published TreeIndex's heap in KiB, how many reroot rounds ran
// serially vs on the worker team, how many batch components the work cap
// recomputed, and the entries the leftover-grouping sweeps read) goes to
// stderr so it never pollutes the scrape-format stdout.
//
//   pardfs_stat [--scenario=read_heavy|insert_churn|adversarial_star|
//                           social_mix|dynamic_map]
//               [--n=4096] [--seed=42] [--updates=2000] [--threads=0]
//               [--shards=1]           component-partitioned shards; > 1
//                                      labels the service series shard="i"
//               [--watch-ms=0]        re-print the registry every N ms while
//                                     the workload runs (0 = once, at the end)
//               [--inject-failures=K] kill the writer K times (round-robin
//                                     over the shards) while the workload
//                                     runs; each death fails over by journal
//                                     replay (DESIGN.md §13) and the page
//                                     shows pardfs_recoveries_total and the
//                                     pardfs_recovery_latency_us histogram
//                                     moving
//               [--format=prom|json]
//               [--trace-out=FILE]    enable span tracing; write the chrome
//                                     trace JSON to FILE at the end
//               [--no-metrics]        runtime kill switch (registry
//                                     recording off, so its series print
//                                     zeros; the router's event counts
//                                     still count — the knob the
//                                     determinism pins exercise)
//
// Exit code 0 on success, 2 on a malformed argument (every number is parsed
// in full, with a lower bound). See EXPERIMENTS.md E16 for a sample session.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parse_number.hpp"
#include "service/shard_router.hpp"
#include "service/workload.hpp"

namespace {

using namespace pardfs;
using namespace pardfs::service;
using pardfs::tools::parse_number;

struct Options {
  Scenario scenario = Scenario::kReadHeavy;
  Vertex n = 4096;
  std::uint64_t seed = 42;
  std::uint64_t updates = 2000;
  int threads = 0;
  std::size_t shards = 1;
  std::uint64_t watch_ms = 0;
  std::uint64_t inject_failures = 0;
  bool json = false;
  std::string trace_out;
  bool no_metrics = false;
};

bool parse_scenario(const char* name, Scenario* out) {
  static constexpr Scenario kAll[] = {
      Scenario::kReadHeavy, Scenario::kInsertChurn, Scenario::kAdversarialStar,
      Scenario::kSocialMix, Scenario::kDynamicMap};
  for (const Scenario s : kAll) {
    if (std::strcmp(name, scenario_name(s)) == 0) {
      *out = s;
      return true;
    }
  }
  return false;
}

[[noreturn]] void usage_error(const char* arg) {
  std::fprintf(stderr, "pardfs_stat: bad argument '%s' (see header comment)\n",
               arg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(a, prefix, len) == 0 ? a + len : nullptr;
    };
    if (const char* v = value("--scenario=")) {
      if (!parse_scenario(v, &o.scenario)) usage_error(a);
    } else if (const char* v = value("--n=")) {
      if (!parse_number(v, o.n, Vertex{1})) usage_error(a);
    } else if (const char* v = value("--seed=")) {
      if (!parse_number(v, o.seed, std::uint64_t{0})) usage_error(a);
    } else if (const char* v = value("--updates=")) {
      if (!parse_number(v, o.updates, std::uint64_t{0})) usage_error(a);
    } else if (const char* v = value("--threads=")) {
      if (!parse_number(v, o.threads, 0)) usage_error(a);
    } else if (const char* v = value("--shards=")) {
      if (!parse_number(v, o.shards, std::size_t{1})) usage_error(a);
    } else if (const char* v = value("--watch-ms=")) {
      if (!parse_number(v, o.watch_ms, std::uint64_t{0})) usage_error(a);
    } else if (const char* v = value("--inject-failures=")) {
      if (!parse_number(v, o.inject_failures, std::uint64_t{0})) usage_error(a);
    } else if (const char* v = value("--format=")) {
      if (std::strcmp(v, "json") == 0) {
        o.json = true;
      } else if (std::strcmp(v, "prom") != 0) {
        usage_error(a);
      }
    } else if (const char* v = value("--trace-out=")) {
      o.trace_out = v;
    } else if (std::strcmp(a, "--no-metrics") == 0) {
      o.no_metrics = true;
    } else {
      usage_error(a);
    }
  }
  return o;
}

void print_registry(const ShardRouter& router, bool json) {
  const std::string page = json ? router.metrics_json() : router.metrics_text();
  std::fwrite(page.data(), 1, page.size(), stdout);
  std::fflush(stdout);
}

// The per-shard table: one row per writer stack, from the current snapshots
// and per-shard stats. Goes to stderr so stdout stays scrape-clean.
void print_shard_table(const ShardRouter& router) {
  std::fprintf(stderr,
               "shard  vertices     edges   version   updates   batches  queue  "
               "index_KiB\n");
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const SnapshotPtr snap = router.shard_snapshot(s);
    const ServiceStats st = router.shard_stats(s);
    std::fprintf(stderr, "%5zu  %8lld  %8lld  %8llu  %8llu  %8llu  %5zu  %9zu\n", s,
                 static_cast<long long>(snap->num_vertices()),
                 static_cast<long long>(snap->num_edges()),
                 static_cast<unsigned long long>(snap->version()),
                 static_cast<unsigned long long>(st.updates_applied),
                 static_cast<unsigned long long>(st.batches),
                 router.queue_depth(s), snap->tree().heap_capacity_bytes() / 1024);
  }
  const ServiceStats total = router.stats();
  std::fprintf(stderr,
               "total  %8lld  %8lld  cross-shard inserts: %llu, migrations: "
               "%llu\n",
               static_cast<long long>(router.num_vertices()),
               static_cast<long long>(router.num_edges()),
               static_cast<unsigned long long>(total.cross_shard_inserts),
               static_cast<unsigned long long>(total.shard_migrations));
  // The §13 failure-domain counters. The page renders these same counts
  // as pardfs_recoveries_total / pardfs_acks_retryable_total /
  // pardfs_overload_shed_total, with --no-metrics too (failover timing is
  // the pardfs_recovery_latency_us histogram, a registry series).
  std::fprintf(stderr,
               "       recoveries: %llu, retryable acks: %llu, overload "
               "sheds: %llu\n",
               static_cast<unsigned long long>(total.recoveries),
               static_cast<unsigned long long>(total.retryable_acks),
               static_cast<unsigned long long>(total.overload_sheds));
  // Whether the engine's rounds use the worker team: a team fans out only
  // rounds with parallel slack (pardfs_reroot_round_dispatch_total{mode}).
  const auto rounds = [](const char* mode) {
    return static_cast<unsigned long long>(
        obs::Registry::global()
            .counter("pardfs_reroot_round_dispatch_total",
                     std::string("mode=\"") + mode + "\"")
            .value());
  };
  std::fprintf(stderr, "       reroot rounds: %llu serial, %llu on the team\n",
               rounds("serial"), rounds("team"));
  // Batch components over the work cap, finished with one DFS instead of
  // the round machinery (pardfs_update_recompute_total).
  std::fprintf(stderr, "       batch components recomputed: %llu\n",
               static_cast<unsigned long long>(
                   obs::Registry::global()
                       .counter("pardfs_update_recompute_total")
                       .value()));
  // Work of the leftover grouping: the non-tree adjacency entries its sweeps
  // read (pardfs_reroot_grouping_scanned_total; tree edges between pieces
  // are united without a read).
  std::fprintf(stderr, "       reroot grouping scanned: %llu entries\n",
               static_cast<unsigned long long>(
                   obs::Registry::global()
                       .counter("pardfs_reroot_grouping_scanned_total")
                       .value()));
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.no_metrics) obs::set_metrics_enabled(false);
  if (!o.trace_out.empty()) obs::set_tracing_enabled(true);

  const WorkloadSpec spec{o.scenario, o.n, o.seed};
  ServiceConfig config;
  config.num_threads = o.threads;
  config.num_shards = o.shards;
  config.serve_cuts = o.scenario == Scenario::kDynamicMap;
  ShardRouter svc(make_initial_graph(spec), config);

  // One producer streams the scenario; the main thread is the watcher. With
  // --inject-failures the producer also plays chaos monkey: writer kills
  // spread evenly through the stream, round-robin over the shards, with the
  // client retry loop resubmitting whatever a crash spilled (kRetryable).
  std::thread producer([&] {
    WorkloadDriver driver(spec);
    const std::uint64_t kill_every =
        o.inject_failures > 0
            ? std::max<std::uint64_t>(o.updates / (o.inject_failures + 1), 1)
            : 0;
    std::uint64_t kills = 0;
    std::size_t kill_shard = 0;
    for (std::uint64_t i = 0; i < o.updates; ++i) {
      if (kill_every > 0 && kills < o.inject_failures && i > 0 &&
          i % kill_every == 0) {
        svc.inject_writer_failure(kill_shard);
        kill_shard = (kill_shard + 1) % svc.num_shards();
        ++kills;
      }
      if (o.inject_failures > 0) {
        (void)submit_with_retry(svc, driver.next());
      } else {
        (void)svc.apply_sync(driver.next());
      }
    }
  });

  if (o.watch_ms > 0) {
    while (true) {
      print_registry(svc, o.json);
      std::fputs(o.json ? "\n" : "\n---\n", stdout);
      if (producer.joinable() &&
          svc.stats().updates_applied + svc.stats().updates_rejected >=
              o.updates) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(o.watch_ms));
    }
  }
  producer.join();
  svc.stop();

  print_registry(svc, o.json);
  print_shard_table(svc);
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    if (!out) {
      std::fprintf(stderr, "pardfs_stat: cannot write %s\n",
                   o.trace_out.c_str());
      return 1;
    }
    out << obs::chrome_trace_json();
    std::fprintf(stderr, "trace written to %s (load at chrome://tracing)\n",
                 o.trace_out.c_str());
  }
  return 0;
}
