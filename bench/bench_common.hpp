// Shared helpers for the benchmark harness.
//
// Conventions: each bench binary regenerates one experiment of
// EXPERIMENTS.md (the paper has no empirical tables; each experiment
// measures one theorem's quantity). Wall-clock time comes from
// google-benchmark; the PRAM quantities the theorems actually bound
// (engine rounds, query sets, passes, CONGEST rounds/messages) are exported
// as user counters so the shape is visible regardless of the host machine.
#pragma once

#include <benchmark/benchmark.h>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace pardfs::benchutil {

// A reproducible mixed update stream (feasible at every step).
inline std::vector<GraphUpdate> make_update_stream(const Graph& initial, int count,
                                                  std::uint64_t seed,
                                                  double ins_e = 1.0,
                                                  double del_e = 1.0,
                                                  double ins_v = 0.2,
                                                  double del_v = 0.2) {
  Graph g = initial;
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    GraphUpdate u;
    if (!gen::random_update(g, rng, ins_e, del_e, ins_v, del_v, u)) break;
    g.apply(u);
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace pardfs::benchutil
