// E-service — the serving layer under concurrent load (see EXPERIMENTS.md).
//
// Three measurements:
//   * read throughput vs reader-thread count on the read-heavy workload
//     while one producer churns updates in the background — snapshot reads
//     must scale with threads (the RCU claim);
//   * per-update acknowledged latency (submit -> snapshot published) per
//     workload scenario, p50/p99 exported as counters;
//   * writer throughput under producer pressure — how large the coalesced
//     batches grow and how few index rebuilds the batch path pays.
//
// run_bench.sh emits this binary's JSON as BENCH_service.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/dfs_service.hpp"
#include "service/workload.hpp"
#include "util/random.hpp"

namespace {

using namespace pardfs;
using namespace pardfs::service;

// CI artifact hook: with PARDFS_OBS_DUMP_DIR set, phase tracing runs for the
// whole binary and at process exit the registry's Prometheus page plus the
// chrome://tracing JSON land in that directory (uploaded by the bench-smoke
// job; see EXPERIMENTS.md E16 for loading the trace). The page is rendered
// from the registry alone, after every router is gone, so it carries no
// router event counts (pardfs_batches_total, pardfs_updates_applied_total,
// ...): those are each router's own, on its metrics_text().
struct ObsDump {
  ObsDump() {
    if (std::getenv("PARDFS_OBS_DUMP_DIR") != nullptr) {
      obs::set_tracing_enabled(true);
    }
  }
  ~ObsDump() {
    const char* dir = std::getenv("PARDFS_OBS_DUMP_DIR");
    if (dir == nullptr) return;
    std::ofstream(std::string(dir) + "/BENCH_service_metrics.prom")
        << obs::prometheus_text();
    std::ofstream(std::string(dir) + "/BENCH_service_trace.json")
        << obs::chrome_trace_json();
  }
} g_obs_dump;

// A reader performs batches of queries, reloading the snapshot between
// batches (the serving pattern: one atomic load amortized over many answers).
std::uint64_t run_reader_queries(const DfsService& svc, Rng& rng,
                                 std::uint64_t total) {
  std::uint64_t answered = 0;
  std::uint64_t sink = 0;
  while (answered < total) {
    const SnapshotPtr snap = svc.snapshot();
    const Vertex cap = snap->capacity();
    for (int q = 0; q < 64 && answered < total; ++q, ++answered) {
      const Vertex u = static_cast<Vertex>(rng.below(cap));
      const Vertex v = static_cast<Vertex>(rng.below(cap));
      sink += snap->is_ancestor(u, v) ? 1 : 0;
      sink += static_cast<std::uint64_t>(snap->lca(u, v));
      sink += snap->same_component(u, v) ? 1 : 0;
      sink += static_cast<std::uint64_t>(snap->root_of(u));
    }
  }
  return sink;
}

// Read throughput scaling: Arg = reader threads. One background producer
// streams the read-heavy workload the whole time.
void BM_ServiceReadThroughput(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  const WorkloadSpec spec{Scenario::kReadHeavy, 1 << 12, 42};
  DfsService svc(make_initial_graph(spec));
  std::atomic<bool> stop_producer{false};
  std::thread producer([&] {
    WorkloadDriver driver(spec);
    while (!stop_producer.load(std::memory_order_relaxed)) {
      (void)svc.apply_sync(driver.next());
    }
  });

  constexpr std::uint64_t kQueriesPerReader = 1 << 14;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        Rng rng(1000 + static_cast<std::uint64_t>(r));
        benchmark::DoNotOptimize(run_reader_queries(svc, rng, kQueriesPerReader));
      });
    }
    for (auto& t : pool) t.join();
  }
  stop_producer.store(true);
  producer.join();
  svc.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          readers * kQueriesPerReader);
  state.counters["readers"] = static_cast<double>(readers);
  state.counters["snapshots"] =
      static_cast<double>(svc.stats().snapshots_published);
}
BENCHMARK(BM_ServiceReadThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Acknowledged update latency per scenario (submit -> publishing snapshot),
// with a small reader pool running so the measurement includes real sharing.
void BM_ServiceUpdateLatency(benchmark::State& state) {
  const auto scenario = static_cast<Scenario>(state.range(0));
  const WorkloadSpec spec{scenario, 1 << 11, 7};
  WorkloadDriver driver(spec);
  DfsService svc(make_initial_graph(spec));
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> pool;
  for (int r = 0; r < 2; ++r) {
    pool.emplace_back([&, r] {
      Rng rng(50 + static_cast<std::uint64_t>(r));
      while (!stop_readers.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(run_reader_queries(svc, rng, 1 << 10));
      }
    });
  }
  // Latency percentiles come from the registry's ack-latency histogram —
  // the same series production scrapes (submit -> ack, recorded by the
  // writer). Reset scopes the histogram to this run's samples.
  obs::Registry::global().reset();
  for (auto _ : state) {
    (void)svc.apply_sync(driver.next());
  }
  stop_readers.store(true);
  for (auto& t : pool) t.join();
  svc.stop();
  const obs::HistogramSnapshot lat =
      obs::Registry::global().histogram("pardfs_ack_latency_us", "", 1e-3)
          .snapshot();
  state.counters["p50_us"] = lat.p50;
  state.counters["p99_us"] = lat.p99;
  state.SetLabel(scenario_name(scenario));
}
BENCHMARK(BM_ServiceUpdateLatency)
    ->Arg(static_cast<int>(Scenario::kReadHeavy))
    ->Arg(static_cast<int>(Scenario::kInsertChurn))
    ->Arg(static_cast<int>(Scenario::kAdversarialStar))
    ->Arg(static_cast<int>(Scenario::kSocialMix))
    ->Unit(benchmark::kMicrosecond);

// Full client mix per scenario: each operation is a snapshot read with the
// scenario's canonical read_fraction, otherwise a submitted update (synced
// every 64 in-flight updates to bound queue growth). items = operations.
void BM_ServiceScenarioMix(benchmark::State& state) {
  const auto scenario = static_cast<Scenario>(state.range(0));
  const WorkloadSpec spec{scenario, 1 << 11, 13};
  WorkloadDriver driver(spec);
  DfsService svc(make_initial_graph(spec));
  const double reads = read_fraction(scenario);
  Rng rng(31);
  std::uint64_t sink = 0;
  std::vector<UpdateTicket> tickets;
  for (auto _ : state) {
    if (rng.uniform() < reads) {
      const SnapshotPtr snap = svc.snapshot();
      const Vertex u = static_cast<Vertex>(rng.below(snap->capacity()));
      sink += static_cast<std::uint64_t>(snap->root_of(u));
      sink += static_cast<std::uint64_t>(snap->depth(u));
    } else {
      tickets.push_back(svc.submit(driver.next()));
      if (tickets.size() >= 64) {
        for (const UpdateTicket& t : tickets) t.wait();
        tickets.clear();
      }
    }
  }
  for (const UpdateTicket& t : tickets) t.wait();
  benchmark::DoNotOptimize(sink);
  svc.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["read_fraction"] = reads;
  state.counters["max_batch"] = static_cast<double>(svc.stats().max_batch);
  state.SetLabel(scenario_name(scenario));
}
BENCHMARK(BM_ServiceScenarioMix)
    ->Arg(static_cast<int>(Scenario::kReadHeavy))
    ->Arg(static_cast<int>(Scenario::kInsertChurn))
    ->Arg(static_cast<int>(Scenario::kAdversarialStar))
    ->Arg(static_cast<int>(Scenario::kSocialMix))
    ->Unit(benchmark::kMicrosecond);

// Writer throughput under pressure: Arg = producer threads racing edge
// flips. The interesting counters are how large coalesced batches grow and
// how few O(n) index rebuilds the batch path pays per applied update.
void BM_ServiceWriterThroughput(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  const Vertex n = 1 << 11;
  Rng grng(21);
  ServiceConfig config;
  config.queue_capacity = 1 << 12;
  DfsService svc(gen::random_connected(n, 3 * static_cast<std::int64_t>(n), grng),
                 config);
  constexpr int kPerProducerPerIter = 128;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    for (int p = 0; p < producers; ++p) {
      pool.emplace_back([&, p] {
        Rng rng(300 + static_cast<std::uint64_t>(p));
        std::vector<UpdateTicket> tickets;
        tickets.reserve(kPerProducerPerIter);
        for (int i = 0; i < kPerProducerPerIter; ++i) {
          const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
          const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
          if (u == v) continue;
          UpdateTicket t;
          const GraphUpdate update = rng.coin(0.5)
                                         ? GraphUpdate::insert_edge(u, v)
                                         : GraphUpdate::delete_edge(u, v);
          if (svc.try_submit(update, &t)) tickets.push_back(t);
        }
        for (const UpdateTicket& t : tickets) t.wait();
      });
    }
    for (auto& t : pool) t.join();
  }
  svc.stop();
  const ServiceStats stats = svc.stats();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(stats.updates_applied + stats.updates_rejected));
  state.counters["applied"] = static_cast<double>(stats.updates_applied);
  state.counters["max_batch"] = static_cast<double>(stats.max_batch);
  state.counters["rebuilds_per_update"] =
      stats.updates_applied == 0
          ? 0.0
          : static_cast<double>(stats.index_rebuilds) /
                static_cast<double>(stats.updates_applied);
}
BENCHMARK(BM_ServiceWriterThroughput)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---- sharded serving (component-partitioned router) ------------------------

// A many-component initial graph — the regime sharding partitions. Blocks of
// `block` vertices, each a ring plus random chords, no inter-block edges, so
// the router spreads whole blocks across shards round-robin.
Graph sharded_bench_graph(Vertex n, Vertex block) {
  Graph g(n);
  Rng rng(4242);
  for (Vertex base = 0; base + block <= n; base += block) {
    for (Vertex i = 0; i < block; ++i) {
      g.add_edge(base + i, base + (i + 1) % block);
    }
    for (Vertex c = 0; c < block / 8; ++c) {
      const Vertex u = base + static_cast<Vertex>(rng.below(block));
      const Vertex v = base + static_cast<Vertex>(rng.below(block));
      if (u != v) g.add_edge(u, v);
    }
  }
  return g;
}

// An intra-block chord flip: endpoints stay in one component, so ownership
// never migrates and the churn matches the unsharded producer's shape.
GraphUpdate intra_block_flip(Rng& rng, Vertex n, Vertex block) {
  const Vertex base =
      static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n / block))) * block;
  const Vertex u = base + static_cast<Vertex>(rng.below(block));
  Vertex v = base + static_cast<Vertex>(rng.below(block));
  if (u == v) v = base + (v + 1) % block;
  return rng.coin(0.5) ? GraphUpdate::insert_edge(u, v)
                       : GraphUpdate::delete_edge(u, v);
}

// Read throughput vs shard count at a fixed reader pool: Args = (shards,
// readers). One background producer churns intra-block flips through the
// router the whole time. The shard_scaling row of bench/gates.py pins the
// 4-shard / 1-shard items_per_second ratio.
void BM_ShardedReadThroughput(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const int readers = static_cast<int>(state.range(1));
  const Vertex n = 1 << 16;
  constexpr Vertex kBlock = 256;
  ServiceConfig config;
  config.num_shards = shards;
  ShardRouter router(sharded_bench_graph(n, kBlock), config);
  std::atomic<bool> stop_producer{false};
  std::thread producer([&] {
    Rng rng(977);
    while (!stop_producer.load(std::memory_order_relaxed)) {
      (void)router.apply_sync(intra_block_flip(rng, n, kBlock));
    }
  });

  constexpr std::uint64_t kQueriesPerReader = 1 << 14;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        Rng rng(1000 + static_cast<std::uint64_t>(r));
        std::uint64_t sink = 0;
        for (std::uint64_t done = 0; done < kQueriesPerReader; done += 64) {
          sink += run_read_session(router, rng, 64, nullptr);
        }
        benchmark::DoNotOptimize(sink);
      });
    }
    for (auto& t : pool) t.join();
  }
  stop_producer.store(true);
  producer.join();
  router.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          readers * kQueriesPerReader);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["readers"] = static_cast<double>(readers);
  state.counters["migrations"] =
      static_cast<double>(router.stats().shard_migrations);
}
BENCHMARK(BM_ShardedReadThroughput)
    ->Args({1, 4})->Args({4, 4})->Args({16, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The acceptance scenario: a 2^20-vertex many-component graph served by 16
// shards under 1e5 simulated client sessions — each session a short read
// burst plus the read-heavy mix's update probability, acknowledged end to
// end. Per-shard QPS and ack-latency percentiles are exported as counters
// (s<i>_qps / s<i>_ack_p99_us), so they land in BENCH_service.json.
void BM_ShardedClientSessions(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto sessions = static_cast<std::uint64_t>(state.range(1));
  const Vertex n = 1 << 20;
  constexpr Vertex kBlock = 256;
  ServiceConfig config;
  config.num_shards = shards;
  config.queue_capacity = 1 << 12;
  ShardRouter router(sharded_bench_graph(n, kBlock), config);
  const unsigned hw = std::thread::hardware_concurrency();
  const int clients = static_cast<int>(std::min(16u, std::max(4u, hw)));
  obs::Registry::global().reset();  // scope the ack histograms to this run
  std::vector<std::vector<std::uint64_t>> per_client_shard(
      static_cast<std::size_t>(clients),
      std::vector<std::uint64_t>(shards, 0));
  double elapsed_s = 0.0;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::now_ns();
    std::atomic<std::uint64_t> next_session{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        Rng rng(7000 + static_cast<std::uint64_t>(c));
        auto& mine = per_client_shard[static_cast<std::size_t>(c)];
        while (next_session.fetch_add(1, std::memory_order_relaxed) < sessions) {
          benchmark::DoNotOptimize(run_read_session(router, rng, 8, &mine));
          if (rng.coin(0.05)) {
            UpdateTicket t;
            if (router.try_submit(intra_block_flip(rng, n, kBlock), &t)) {
              (void)t.wait();
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    elapsed_s += static_cast<double>(obs::now_ns() - t0) * 1e-9;
  }
  router.stop();
  std::vector<std::uint64_t> shard_queries(shards, 0);
  for (const auto& mine : per_client_shard) {
    for (std::size_t s = 0; s < shards; ++s) shard_queries[s] += mine[s];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    // Appended, not `"s" + std::to_string(s)`, which GCC 12 -Wrestrict flags
    // in Release builds.
    std::string tag = "s";
    tag += std::to_string(s);
    state.counters[tag + "_qps"] =
        elapsed_s > 0.0 ? static_cast<double>(shard_queries[s]) / elapsed_s : 0.0;
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    const obs::HistogramSnapshot ack =
        obs::Registry::global().histogram("pardfs_ack_latency_us", label, 1e-3)
            .snapshot();
    state.counters[tag + "_ack_p50_us"] = ack.p50;
    state.counters[tag + "_ack_p99_us"] = ack.p99;
  }
  const ServiceStats stats = router.stats();
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["applied"] = static_cast<double>(stats.updates_applied);
  state.counters["migrations"] = static_cast<double>(stats.shard_migrations);
  state.SetItemsProcessed(static_cast<std::int64_t>(sessions));
}
BENCHMARK(BM_ShardedClientSessions)
    ->Args({16, 100000})->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// E18 — failover cost (EXPERIMENTS.md): kill shard writers mid-stream and
// compare the journal-replay recovery latency (the registry's
// pardfs_recovery_latency_us histogram, recorded by the watchdog) against
// the steady-state batch cycle, timed client-side. Kills run first, while
// journals are short: replay cost is proportional to the recorded history,
// so this measures the supervision overhead (detect, join, replay,
// republish, respawn), not an unbounded log rewind. The steady-state sample
// is one pipelined 64-update burst — the canonical client window (cf.
// BM_ServiceScenarioMix), which the writers coalesce into batches — so the
// gate reads as "a failover stalls its shard for less than 10 steady batch
// cycles". Arg = shards. The recovery row of bench/gates.py pins
// p99(recovery) < 10 x p99(steady batch) at 4 shards.
void BM_ShardRecovery(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const Vertex n = 1 << 15;
  constexpr Vertex kBlock = 256;
  ServiceConfig config;
  config.num_shards = shards;
  config.watchdog_poll_ms = 1;
  constexpr int kKills = 24;
  constexpr int kBursts = 64;
  constexpr int kBurst = 64;
  std::vector<double> batch_us;
  batch_us.reserve(kBursts);
  std::uint64_t recoveries = 0;
  obs::Registry::global().reset();  // scope the recovery histogram to this run
  for (auto _ : state) {
    ShardRouter router(sharded_bench_graph(n, kBlock), config);
    Rng rng(1717);
    // Failover phase: poison the shard that owns the next update, then drive
    // that update to a definitive ack through the client retry loop — which
    // only lands after the watchdog's journal replay respawned the writer.
    for (int k = 0; k < kKills; ++k) {
      const GraphUpdate u = intra_block_flip(rng, n, kBlock);
      const int s = router.shard_of(u.u);
      if (s < 0) continue;
      router.inject_writer_failure(static_cast<std::size_t>(s));
      (void)submit_with_retry(router, u);
    }
    // Steady state: pipelined bursts on the recovered writers. Each sample is
    // one burst's turnaround (submit the window, wait for every ack).
    for (int b = 0; b < kBursts; ++b) {
      std::vector<UpdateTicket> tickets;
      tickets.reserve(kBurst);
      const std::uint64_t t0 = obs::now_ns();
      for (int i = 0; i < kBurst; ++i) {
        UpdateTicket t;
        if (router.try_submit(intra_block_flip(rng, n, kBlock), &t)) {
          tickets.push_back(t);
        }
      }
      for (const UpdateTicket& t : tickets) (void)t.wait();
      batch_us.push_back(static_cast<double>(obs::now_ns() - t0) * 1e-3);
    }
    recoveries += router.stats().recoveries;
    router.stop();
  }
  std::sort(batch_us.begin(), batch_us.end());
  const auto pct = [&](double q) {
    if (batch_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(batch_us.size() - 1));
    return batch_us[idx];
  };
  const obs::HistogramSnapshot rec =
      obs::Registry::global()
          .histogram("pardfs_recovery_latency_us", "", 1e-3)
          .snapshot();
  state.counters["recoveries"] = static_cast<double>(recoveries);
  state.counters["recovery_p50_us"] = rec.p50;
  state.counters["recovery_p99_us"] = rec.p99;
  state.counters["steady_batch_p50_us"] = pct(0.50);
  state.counters["steady_batch_p99_us"] = pct(0.99);
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardRecovery)->Arg(1)->Arg(4)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
