// Experiment E5/E9 (Theorem 16): CONGEST rounds and messages per update as
// a function of the network diameter D at (roughly) fixed n. Rounds must
// track D·log^2 n; messages must track nD·log^2 n + m; message size is n/D.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "dist/distributed_dfs.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

Graph topology(int which, Vertex n, Rng& rng) {
  switch (which) {
    case 0: return gen::gnm(n, 6 * static_cast<std::int64_t>(n), rng);  // D ~ log n
    case 1: {
      const Vertex side = static_cast<Vertex>(std::max(2.0, std::sqrt(double(n))));
      return gen::grid(side, side);  // D ~ 2 sqrt(n)
    }
    case 2: return gen::cycle(n);  // D ~ n/2
    default: return gen::hairy_path(n / 8, 7);  // D ~ n/8
  }
}

void BM_DistributedUpdate(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const Vertex n = 1 << 10;
  Rng rng(41);
  Graph g = topology(which, n, rng);
  const auto updates = benchutil::make_update_stream(g, 24, 4242, 1, 1, 0, 0);
  dist::DistributedDfs dd(g);
  std::size_t i = 0;
  std::uint64_t rounds = 0, messages = 0, applied = 0;
  std::int64_t height = 0;
  for (auto _ : state) {
    if (i != 0 && i % updates.size() == 0) {
      state.PauseTiming();
      dd = dist::DistributedDfs(g);
      state.ResumeTiming();
    }
    dd.apply(updates[i++ % updates.size()]);
    rounds += dd.last_cost().rounds;
    messages += dd.last_cost().messages;
    height = std::max<std::int64_t>(height, dd.last_cost().bfs_height);
    ++applied;
  }
  state.counters["rounds/update"] =
      benchmark::Counter(static_cast<double>(rounds) / applied);
  state.counters["messages/update"] =
      benchmark::Counter(static_cast<double>(messages) / applied);
  state.counters["D_est"] = benchmark::Counter(static_cast<double>(height));
  state.counters["B_words"] = benchmark::Counter(dd.message_words());
  state.SetLabel(which == 0   ? "gnm_expander"
                 : which == 1 ? "grid"
                 : which == 2 ? "ring"
                              : "hairy_path");
}
BENCHMARK(BM_DistributedUpdate)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// Message-size trade-off: shrinking B below n/D inflates rounds linearly.
void BM_DistributedMessageSize(benchmark::State& state) {
  const std::int32_t b = static_cast<std::int32_t>(state.range(0));
  Graph g = gen::grid(16, 32);
  const auto updates = benchutil::make_update_stream(g, 16, 4243, 1, 1, 0, 0);
  dist::DistributedDfs dd(g, b);
  std::size_t i = 0;
  std::uint64_t rounds = 0, applied = 0;
  for (auto _ : state) {
    if (i != 0 && i % updates.size() == 0) {
      state.PauseTiming();
      dd = dist::DistributedDfs(g, b);
      state.ResumeTiming();
    }
    dd.apply(updates[i++ % updates.size()]);
    rounds += dd.last_cost().rounds;
    ++applied;
  }
  state.counters["rounds/update"] =
      benchmark::Counter(static_cast<double>(rounds) / applied);
  state.counters["B_words"] = benchmark::Counter(b);
}
BENCHMARK(BM_DistributedMessageSize)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
