// Experiment E8 (ablation): the paper's phase/stage machinery vs. the
// sequential "always climb to the root" rerooting of Baswana et al. [6].
// On broom graphs the sequential strategy needs Θ(#bristles) rounds while
// the paper strategy stays polylog — the core speedup this paper delivers.
#include <benchmark/benchmark.h>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/rerooter.hpp"
#include "graph/generators.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

void run_strategy(benchmark::State& state, RerootStrategy strategy, int family) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(81);
  Graph g = [&]() -> Graph {
    switch (family) {
      case 0: return gen::path(n);
      case 1: return gen::hairy_path(n / 4, 3);
      default: return gen::random_connected(n, 2 * static_cast<std::int64_t>(n), rng);
    }
  }();
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  AdjacencyOracle oracle;
  oracle.build(g, index);
  const OracleView view(&oracle, &index, true);
  // Reroot at the middle: the worst case for the sequential strategy (each
  // l-traversal peels one vertex off a long dangling path -> Θ(n) dependent
  // rounds; the paper's machinery halves the structure every O(1) rounds).
  const Vertex new_root = g.capacity() / 2;

  std::uint64_t rounds = 0, runs = 0;
  for (auto _ : state) {
    std::vector<Vertex> out(parent.begin(), parent.end());
    Rerooter engine(index, g, view, strategy);
    const RerootRequest reqs[] = {{index.root_of(new_root), new_root, kNullVertex}};
    const RerootStats s = engine.run(reqs, out);
    rounds += s.global_rounds;
    ++runs;
    benchmark::DoNotOptimize(out);
  }
  state.counters["rounds/reroot"] =
      benchmark::Counter(static_cast<double>(rounds) / runs);
  state.counters["n"] = benchmark::Counter(n);
}

void BM_PaperStrategy_Path(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kPaper, 0);
}
void BM_SequentialL_Path(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kSequentialL, 0);
}
void BM_PaperStrategy_Hairy(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kPaper, 1);
}
void BM_SequentialL_Hairy(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kSequentialL, 1);
}
void BM_PaperStrategy_Random(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kPaper, 2);
}
void BM_SequentialL_Random(benchmark::State& state) {
  run_strategy(state, RerootStrategy::kSequentialL, 2);
}

BENCHMARK(BM_PaperStrategy_Path)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SequentialL_Path)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PaperStrategy_Hairy)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SequentialL_Hairy)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PaperStrategy_Random)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SequentialL_Random)->RangeMultiplier(4)->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
