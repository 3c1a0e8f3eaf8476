// Experiment E2a (Theorem 8): preprocessing — building the data structure D
// (post-order-sorted adjacency) plus the tree index. Work must scale as
// Θ(m log n); the PRAM depth is one sort round (O(log n)).
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "graph/generators.hpp"
#include "pram/cost_model.hpp"
#include "pram/list_ranking.hpp"
#include "pram/parallel.hpp"
#include "tree/euler_tour.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

void BM_BuildOracle(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const std::int64_t m = state.range(1) * static_cast<std::int64_t>(n);
  Rng rng(7);
  Graph g = gen::random_connected(n, m - (n - 1), rng);
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  pram::CostModel cost;
  bool aligned = true;
  for (auto _ : state) {
    AdjacencyOracle oracle;
    oracle.build(g, index, &cost);
    benchmark::DoNotOptimize(oracle);
    aligned &= oracle.csr_aligned();
  }
  state.counters["n"] = benchmark::Counter(n);
  state.counters["aligned"] = benchmark::Counter(aligned ? 1 : 0);
  state.counters["m"] = benchmark::Counter(static_cast<double>(g.num_edges()));
  state.counters["pram_depth/build"] = benchmark::Counter(
      static_cast<double>(cost.snapshot().pram_time) /
      static_cast<double>(state.iterations()));
  state.SetComplexityN(static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BuildOracle)
    ->ArgsProduct({{1 << 10, 1 << 12, 1 << 14, 1 << 16}, {2, 8}})
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNLogN);

// range(1) picks the TreeBuildMode: 0 kAuto, 1 kSerial (the same build).
// With BM_EulerTourTables below, these rows are the serial-vs-Theorem-4
// comparison behind TreeIndex's single build (EXPERIMENTS.md E28); heap_mb
// is the rebuilt index's footprint (E36).
void BM_BuildTreeIndex(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  const auto mode = static_cast<TreeBuildMode>(state.range(1));
  Rng rng(8);
  Graph g = gen::random_connected(n, 2 * static_cast<std::int64_t>(n), rng);
  const auto parent = static_dfs(g);
  TreeIndex index;  // rebuilt in place, as the dynamic engine does
  for (auto _ : state) {
    index.build(parent, {}, mode);
    benchmark::DoNotOptimize(index);
  }
  state.counters["n"] = benchmark::Counter(n);
  state.counters["mode"] = benchmark::Counter(static_cast<double>(state.range(1)));
  // Every buffer the index owns, LCA table and rebuild scratch included.
  state.counters["heap_mb"] = benchmark::Counter(
      static_cast<double>(index.heap_capacity_bytes()) / (1024.0 * 1024.0));
}
BENCHMARK(BM_BuildTreeIndex)
    ->ArgsProduct({benchmark::CreateRange(1 << 10, 1 << 20, 4), {0, 1}})
    ->ArgNames({"n", "mode"})
    ->Unit(benchmark::kMicrosecond);

// Theorem 4's construction on the same tree as BM_BuildTreeIndex: Euler
// tour, list ranking and scans on the default team, vertex tour included.
void BM_EulerTourTables(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(8);
  Graph g = gen::random_connected(n, 2 * static_cast<std::int64_t>(n), rng);
  const auto parent = static_dfs(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(euler_tour_tables(parent));
  }
  state.counters["n"] = benchmark::Counter(n);
  state.counters["threads"] = benchmark::Counter(pram::num_threads());
}
BENCHMARK(BM_EulerTourTables)
    ->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->ArgNames({"n"})
    ->Unit(benchmark::kMicrosecond);

// Work-efficient list ranking on one random list of n nodes — the Euler
// tour's ranking step in isolation (2 nodes per tree edge).
void BM_ListRank(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::vector<std::uint32_t> next(n, pram::kListEnd);
  for (std::size_t i = 0; i + 1 < n; ++i) next[order[i]] = order[i + 1];
  for (auto _ : state) {
    benchmark::DoNotOptimize(pram::list_rank(next));
  }
  state.counters["n"] = benchmark::Counter(static_cast<double>(n));
  state.counters["threads"] = benchmark::Counter(pram::num_threads());
}
BENCHMARK(BM_ListRank)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_StaticDfsBuild(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(9);
  Graph g = gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(static_dfs(g));
  }
  state.counters["n"] = benchmark::Counter(n);
}
BENCHMARK(BM_StaticDfsBuild)->RangeMultiplier(4)->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
