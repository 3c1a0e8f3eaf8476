// Experiment E10 (extension; the paper's closing open question): how much
// of the per-update cost is the D rebuild, and what a rebuild-every-p
// policy buys. DynamicDfs's epoch period is the knob: period 1 rebuilds D
// before every structural update but the first; larger periods amortize
// the Θ(m log n) rebuild across updates at the price of deeper query
// decompositions (Theorem 9's O(log^{2k} n) growth). `rebuilds/update`
// should fall about as 1/p.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

void BM_AmortizedPeriodSweep(benchmark::State& state) {
  const std::size_t period = static_cast<std::size_t>(state.range(0));
  const Vertex n = 1 << 12;
  Rng rng(11);
  Graph g = gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
  const auto stream = benchutil::make_update_stream(g, 64, 321, 1, 1, 0.2, 0.2);
  const auto make = [&] {
    return std::make_unique<DynamicDfs>(g, RerootStrategy::kPaper, nullptr, 0,
                                        -1, std::string{}, period);
  };
  auto dfs = make();
  std::size_t i = 0;
  std::uint64_t rounds = 0, applied = 0, rebuilds = 0;
  for (auto _ : state) {
    if (i != 0 && i % stream.size() == 0) {
      state.PauseTiming();
      rebuilds += dfs->epoch_rebuilds() - 1;  // the constructor's build is setup
      dfs = make();
      state.ResumeTiming();
    }
    dfs->apply(benchutil::to_graph_update(stream[i % stream.size()]));
    rounds += dfs->last_stats().global_rounds;
    ++applied;
    ++i;
  }
  rebuilds += dfs->epoch_rebuilds() - 1;
  state.counters["period"] = benchmark::Counter(static_cast<double>(period));
  state.counters["rounds/update"] =
      benchmark::Counter(static_cast<double>(rounds) / applied);
  state.counters["rebuilds/update"] =
      benchmark::Counter(static_cast<double>(rebuilds) / applied);
}
BENCHMARK(BM_AmortizedPeriodSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
