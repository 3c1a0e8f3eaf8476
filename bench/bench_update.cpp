// Experiment E1 (Theorem 1/13): fully dynamic per-update cost vs n.
//
// Series: per-update wall time of DynamicDfs on G(n, m=4n) under a mixed
// update stream, against the static O(m+n) recompute (E6's comparator).
// Counters: engine rounds and query sets per update — the quantities the
// O(log^3 n) bound speaks about; they must grow ~log^2/log^3, not with n.
#include <benchmark/benchmark.h>

#include "baseline/static_dfs.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

// BM_DynamicUpdate runs whole passes of its update stream, each from the
// initial graph, so its work per update is the same however long the timer
// would have let it run.
constexpr int kStreamLength = 64;
constexpr int kStreamPasses = 4;

void BM_DynamicUpdate(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(17);
  Graph g = gen::random_connected(n, 3 * static_cast<std::int64_t>(n), rng);
  const auto stream =
      benchutil::make_update_stream(g, kStreamLength, 1234, 1, 1, 0.1, 0.1);
  PARDFS_CHECK_MSG(stream.size() == static_cast<std::size_t>(kStreamLength),
                   "BM_DynamicUpdate: short update stream");
  DynamicDfs dfs(g);
  std::size_t i = 0;
  std::uint64_t rounds = 0, batches = 0, updates = 0;
  // Phase sums come from the obs registry (the same series production
  // exports): mark-and-delta over the process-wide cumulative breakdown, so
  // the out-of-loop DynamicDfs reconstructions don't pollute the counters.
  UpdatePhaseBreakdown phases_sum;
  UpdatePhaseBreakdown mark = DynamicDfs::phase_breakdown();
  const auto absorb = [&] {
    const UpdatePhaseBreakdown p = DynamicDfs::phase_breakdown();
    phases_sum.patch_us += p.patch_us - mark.patch_us;
    phases_sum.reroot_us += p.reroot_us - mark.reroot_us;
    phases_sum.index_rebuild_us += p.index_rebuild_us - mark.index_rebuild_us;
    phases_sum.rebase_us += p.rebase_us - mark.rebase_us;
    mark = p;
  };
  for (auto _ : state) {
    if (i != 0 && i % stream.size() == 0) {
      // The stream is only feasible against the initial graph: reset before
      // wrapping around.
      state.PauseTiming();
      dfs = DynamicDfs(g);
      mark = DynamicDfs::phase_breakdown();
      state.ResumeTiming();
    }
    dfs.apply(stream[i % stream.size()]);
    absorb();
    rounds += dfs.last_stats().global_rounds;
    batches += dfs.last_stats().query_batches;
    ++updates;
    ++i;
  }
  state.counters["rounds/update"] =
      benchmark::Counter(static_cast<double>(rounds) / updates);
  state.counters["query_sets/update"] =
      benchmark::Counter(static_cast<double>(batches) / updates);
  state.counters["n"] = benchmark::Counter(n);
  // E13 phase breakdown: where each per-update microsecond goes.
  const double per_update = 1.0 / static_cast<double>(updates);
  state.counters["patch_us/update"] =
      benchmark::Counter(phases_sum.patch_us * per_update);
  state.counters["reroot_us/update"] =
      benchmark::Counter(phases_sum.reroot_us * per_update);
  state.counters["index_rebuild_us/update"] =
      benchmark::Counter(phases_sum.index_rebuild_us * per_update);
  state.counters["rebase_us/update"] =
      benchmark::Counter(phases_sum.rebase_us * per_update);
}
BENCHMARK(BM_DynamicUpdate)->RangeMultiplier(2)->Range(1 << 10, 1 << 15)
    ->Iterations(kStreamLength * kStreamPasses)->Unit(benchmark::kMicrosecond);

void BM_StaticRecompute(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(17);
  Graph g = gen::random_connected(n, 3 * static_cast<std::int64_t>(n), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(static_dfs(g));
  }
  state.counters["n"] = benchmark::Counter(n);
}
BENCHMARK(BM_StaticRecompute)->RangeMultiplier(2)->Range(1 << 10, 1 << 15)
    ->Unit(benchmark::kMicrosecond);

// The update kind mix matters: vertex updates reroot many subtrees at once.
void BM_DynamicUpdateByKind(benchmark::State& state) {
  const Vertex n = 1 << 12;
  const int kind = static_cast<int>(state.range(0));
  Rng rng(18);
  Graph g = gen::random_connected(n, 3 * static_cast<std::int64_t>(n), rng);
  const double w[4][4] = {
      {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}};
  const auto stream = benchutil::make_update_stream(
      g, 48, 99, w[kind][0], w[kind][1], w[kind][2], w[kind][3]);
  if (stream.empty()) {
    state.SkipWithError("no feasible updates");
    return;
  }
  DynamicDfs dfs(g);
  std::size_t i = 0;
  std::uint64_t rounds = 0, updates = 0;
  for (auto _ : state) {
    if (i != 0 && i % stream.size() == 0) {
      state.PauseTiming();
      dfs = DynamicDfs(g);
      state.ResumeTiming();
    }
    dfs.apply(stream[i % stream.size()]);
    rounds += dfs.last_stats().global_rounds;
    ++updates;
    ++i;
  }
  state.counters["rounds/update"] =
      benchmark::Counter(static_cast<double>(rounds) / updates);
  state.SetLabel(kind == 0   ? "insert_edge"
                 : kind == 1 ? "delete_edge"
                 : kind == 2 ? "insert_vertex"
                             : "delete_vertex");
}
BENCHMARK(BM_DynamicUpdateByKind)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

// Back-edge churn at fixed n and growing m: a back-edge insert/delete leaves
// the forest untouched and must cost O(1) patch work — flat in m — instead
// of the pre-epoch O(m log n) rebuild.
void BM_BackEdgeChurn(benchmark::State& state) {
  const Vertex n = 1 << 12;
  const std::int64_t m = state.range(0) * static_cast<std::int64_t>(n);
  Rng rng(23);
  Graph g = gen::random_connected(n, m, rng);
  DynamicDfs dfs(g);
  // Any non-tree edge of an undirected DFS forest is a back edge.
  Vertex u = kNullVertex, v = kNullVertex;
  for (const Edge& e : dfs.graph().edges()) {
    if (dfs.parent_of(e.u) != e.v && dfs.parent_of(e.v) != e.u) {
      u = e.u;
      v = e.v;
      break;
    }
  }
  if (u == kNullVertex) {
    state.SkipWithError("no back edge found");
    return;
  }
  const std::size_t rebuilds = dfs.epoch_rebuilds();
  bool present = true;
  for (auto _ : state) {
    if (present) {
      dfs.delete_edge(u, v);
    } else {
      dfs.insert_edge(u, v);
    }
    present = !present;
  }
  state.counters["m"] = benchmark::Counter(static_cast<double>(m));
  state.counters["rebuilds"] =
      benchmark::Counter(static_cast<double>(dfs.epoch_rebuilds() - rebuilds));
}
BENCHMARK(BM_BackEdgeChurn)->RangeMultiplier(2)->Range(2, 16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
