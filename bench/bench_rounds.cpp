// Experiment E7 (§4 progress guarantees): engine rounds, phases and query
// sets per reroot across adversarial families and sizes. The paper's
// machinery promises max_phase <= log n and rounds polylog(n); this bench
// prints the realized numbers (including fallback/special-case counters,
// which must stay near zero).
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/rerooter.hpp"
#include "graph/generators.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

Graph family_graph(int family, Vertex n, Rng& rng) {
  switch (family) {
    case 0: return gen::path(n);
    case 1: return gen::broom(n, 16);
    case 2: return gen::binary_tree(n);
    case 3: return gen::hairy_path(n / 8, 7);
    case 4: return gen::random_connected(n, 4 * static_cast<std::int64_t>(n), rng);
    default: return gen::star(n);
  }
}

const char* family_name(int family) {
  switch (family) {
    case 0: return "path";
    case 1: return "broom";
    case 2: return "binary_tree";
    case 3: return "hairy_path";
    case 4: return "random";
    default: return "star";
  }
}

void BM_RerootRounds(benchmark::State& state) {
  const int family = static_cast<int>(state.range(0));
  const Vertex n = static_cast<Vertex>(state.range(1));
  Rng rng(71);
  Graph g = family_graph(family, n, rng);
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  AdjacencyOracle oracle;
  oracle.build(g, index);
  const OracleView view(&oracle, &index, true);
  // The row's roots, drawn once from its seed and cycled through: a row's
  // mix of roots, and with it its mean, does not depend on how many
  // iterations the timer allows.
  constexpr std::size_t kRoots = 64;
  std::vector<Vertex> roots(kRoots);
  for (Vertex& r : roots) {
    r = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
  }

  std::uint64_t rounds = 0, batches = 0, fallbacks = 0, specials = 0, runs = 0;
  std::uint32_t max_phase = 0;
  for (auto _ : state) {
    std::vector<Vertex> out(parent.begin(), parent.end());
    Rerooter engine(index, g, view, RerootStrategy::kPaper);
    const Vertex new_root = roots[runs % kRoots];
    const RerootRequest reqs[] = {{index.root_of(new_root), new_root, kNullVertex}};
    const RerootStats s = engine.run(reqs, out);
    rounds += s.global_rounds;
    batches += s.query_batches;
    fallbacks += s.fallbacks;
    specials += s.heavy_special;
    max_phase = std::max(max_phase, s.max_phase);
    ++runs;
    benchmark::DoNotOptimize(out);
  }
  state.counters["rounds/reroot"] =
      benchmark::Counter(static_cast<double>(rounds) / runs);
  state.counters["query_sets/reroot"] =
      benchmark::Counter(static_cast<double>(batches) / runs);
  state.counters["max_phase"] = benchmark::Counter(max_phase);
  state.counters["fallbacks"] = benchmark::Counter(static_cast<double>(fallbacks));
  state.counters["special_cases"] = benchmark::Counter(static_cast<double>(specials));
  state.counters["log2n_sq"] = benchmark::Counter(
      std::pow(std::log2(static_cast<double>(std::max<Vertex>(2, n))), 2));
  state.SetLabel(family_name(family));
}
BENCHMARK(BM_RerootRounds)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1 << 10, 1 << 13, 1 << 16}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
