// Experiment E3 (Theorem 14): fault-tolerant k-update batches on a fixed
// preprocessed structure — a DynamicDfs whose epoch never closes
// (kNeverRebase). Time and rounds grow with k (the paper's bound is
// O(k log^{2k+1} n) worst case — geometric in k), while the preprocessing
// (D) is never repeated: counter `d_builds` must read 1, and
// `index_rebuilds/batch` counts the O(n) tree-index rebuilds per batch,
// the rollback's included.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

DynamicDfs fault_tolerant(const Graph& g) {
  return DynamicDfs(g, RerootStrategy::kPaper, nullptr, 0, -1, {},
                    DynamicDfs::kNeverRebase);
}

void BM_FaultTolerantBatch(benchmark::State& state) {
  const Vertex n = 1 << 12;
  const int k = static_cast<int>(state.range(0));
  Rng rng(3);
  Graph g = gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
  DynamicDfs ft = fault_tolerant(g);

  // Pre-generate many feasible k-batches.
  std::vector<std::vector<GraphUpdate>> batches;
  for (int b = 0; b < 16; ++b) {
    batches.push_back(benchutil::make_update_stream(
        g, k, 1000 + static_cast<std::uint64_t>(b), 1, 1, 0.3, 0.3));
  }

  std::size_t i = 0;
  std::uint64_t rounds = 0, applications = 0;
  const std::size_t index_rebuilds_before = ft.index_rebuilds();
  for (auto _ : state) {
    const auto& batch = batches[i++ % batches.size()];
    ft.reset_to_base();
    benchmark::DoNotOptimize(ft.apply_batch(batch));
    rounds += ft.last_stats().global_rounds;
    ++applications;
  }
  // Theorem 14's claim, checked so a smoke run fails loudly without it.
  PARDFS_CHECK_MSG(ft.epoch_rebuilds() == 1, "fault-tolerant batches rebuilt D");
  state.counters["k"] = benchmark::Counter(k);
  state.counters["rounds_last_pass"] =
      benchmark::Counter(static_cast<double>(rounds) / applications);
  state.counters["d_builds"] =
      benchmark::Counter(static_cast<double>(ft.epoch_rebuilds()));
  state.counters["index_rebuilds/batch"] = benchmark::Counter(
      static_cast<double>(ft.index_rebuilds() - index_rebuilds_before) /
      applications);
}
BENCHMARK(BM_FaultTolerantBatch)->DenseRange(1, 8)->Unit(benchmark::kMicrosecond);

// The k=1 case doubles as the sequential-machine comparison the paper's
// remark makes (O(n log^3 n) sequential update vs. O(m) recompute): only
// the incremental update is timed; the batch reset (a graph copy) is not
// part of the claim and runs outside the timer.
void BM_FaultTolerantSingleVsN(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(4);
  Graph g = gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
  DynamicDfs ft = fault_tolerant(g);
  const auto edges = g.edges();
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ft.reset_to_base();
    const Edge e = edges[i++ % edges.size()];
    state.ResumeTiming();
    ft.apply(GraphUpdate::delete_edge(e.u, e.v));
  }
  state.counters["n"] = benchmark::Counter(n);
  state.counters["m"] = benchmark::Counter(static_cast<double>(g.num_edges()));
}
BENCHMARK(BM_FaultTolerantSingleVsN)->RangeMultiplier(2)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
