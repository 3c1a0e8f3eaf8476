// Experiment E4 (Theorem 15): semi-streaming passes per update vs n.
// The headline: passes stay ~log^2 n while the trivial streaming DFS build
// costs n passes. Also measures the single-pass batch evaluator itself.
#include <benchmark/benchmark.h>

#include <memory>

#include "baseline/static_dfs.hpp"
#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "stream/streaming_dfs.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

void BM_StreamingUpdatePasses(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(21);
  Graph g = gen::random_connected(n, 3 * static_cast<std::int64_t>(n), rng);
  const auto updates = benchutil::make_update_stream(g, 32, 777, 1, 1, 0, 0);
  auto es = std::make_unique<stream::EdgeStream>(g.edges());
  auto sd = std::make_unique<stream::StreamingDfs>(*es, n);
  std::size_t i = 0;
  std::uint64_t passes = 0, applied = 0;
  for (auto _ : state) {
    if (i != 0 && i % updates.size() == 0) {
      state.PauseTiming();
      sd.reset();
      es = std::make_unique<stream::EdgeStream>(g.edges());
      sd = std::make_unique<stream::StreamingDfs>(*es, n);
      state.ResumeTiming();
    }
    sd->apply(updates[i++ % updates.size()]);
    passes += sd->passes_last_update();
    ++applied;
  }
  state.counters["passes/update"] =
      benchmark::Counter(static_cast<double>(passes) / applied);
  state.counters["n_passes_static_build"] = benchmark::Counter(n);
  state.counters["n"] = benchmark::Counter(n);
}
BENCHMARK(BM_StreamingUpdatePasses)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

void BM_OnePassBatchEvaluator(benchmark::State& state) {
  const Vertex n = 1 << 13;
  const int batch = static_cast<int>(state.range(0));
  Rng rng(22);
  Graph g = gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  stream::EdgeStream es(g.edges());
  std::vector<stream::StreamQuery> queries;
  while (static_cast<int>(queries.size()) < batch) {
    const Vertex bottom = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    Vertex top = bottom;
    for (std::uint64_t h = rng.below(8); h > 0 && index.parent(top) != kNullVertex; --h) {
      top = index.parent(top);
    }
    const Vertex w = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (index.is_ancestor(w, bottom) || index.is_ancestor(top, w)) continue;
    queries.push_back(
        {stream::StreamQuery::SourceKind::kSubtree, w, kNullVertex, top, bottom, true});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::answer_queries_one_pass(es, index, queries));
  }
  state.counters["batch"] = benchmark::Counter(batch);
  state.counters["edges_scanned"] = benchmark::Counter(static_cast<double>(es.size()));
}
BENCHMARK(BM_OnePassBatchEvaluator)->Arg(1)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
