// E12: thread scaling of the parallel rerooting engine.
//
// The engine steps the components of a global round concurrently on a
// worker team (rerooter.cpp) when the round has parallel slack; the inner
// query primitives parallelize over sources through the same pram facade.
// This bench measures end-to-end batch-update latency of
// DynamicDfs::apply_batch at 1/2/4/8 workers on the two scenarios where
// rerooting dominates: adversarial_star (every spoke toggle reroots a Θ(n)
// ring subtree) and social_mix (power-law hub churn).
// The maintained forest is identical at every thread count (the engine's
// determinism contract, pinned in tests/test_parallel_engine.cpp) — only
// wall-clock may move. Real speedup needs real cores: on a single-core host
// every team size collapses to ~1×.
//
// BM_RerootRound measures the per-round fan-out decision behind
// Rerooter::kParallelRoundWork: one engine round, stepped on the calling
// thread, on a forced 4-worker team and under the real dispatch, swept over
// the round's off-critical-path work for two round shapes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "bench_common.hpp"
#include "core/dynamic_dfs.hpp"
#include "core/rerooter.hpp"
#include "core/rerooter_internal.hpp"
#include "pram/parallel.hpp"
#include "service/workload.hpp"

namespace pardfs {
namespace {

void run_scenario(benchmark::State& state, service::Scenario scenario) {
  const int threads = static_cast<int>(state.range(0));
  const auto n = static_cast<Vertex>(state.range(1));
  // The knob pins both the engine's worker team and the pram facade (inner
  // source-parallel query reductions), so "1 thread" is genuinely serial.
  pram::set_num_threads(threads);
  const service::WorkloadSpec spec{scenario, n, 42};
  service::WorkloadDriver driver(spec);
  DynamicDfs dfs(service::make_initial_graph(spec), RerootStrategy::kPaper,
                 nullptr, threads);
  // One iteration = one coalesced batch of epoch_period updates — the
  // largest batch the service layer hands to apply_batch in one drain.
  const std::size_t batch_size = dfs.epoch_period();
  std::vector<GraphUpdate> batch;
  std::uint64_t updates = 0;
  std::uint64_t rounds = 0;
  const UpdatePhaseBreakdown before = DynamicDfs::phase_breakdown();
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (std::size_t i = 0; i < batch_size; ++i) batch.push_back(driver.next());
    state.ResumeTiming();
    dfs.apply_batch(batch);
    updates += batch.size();
    rounds += dfs.last_stats().global_rounds;
  }
  pram::set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["engine_rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  // E13 phase breakdown across the whole run (per absorbed update, µs):
  // shows how much of a batch is rerooting (the part the worker team
  // parallelizes) vs index rebuild / epoch rebase / patching. Read as a
  // mark-and-delta over the registry's cumulative series (DESIGN.md §11).
  const UpdatePhaseBreakdown after = DynamicDfs::phase_breakdown();
  const double per_update =
      updates > 0 ? 1.0 / static_cast<double>(updates) : 0.0;
  state.counters["patch_us/update"] =
      benchmark::Counter((after.patch_us - before.patch_us) * per_update);
  state.counters["reroot_us/update"] =
      benchmark::Counter((after.reroot_us - before.reroot_us) * per_update);
  state.counters["index_rebuild_us/update"] = benchmark::Counter(
      (after.index_rebuild_us - before.index_rebuild_us) * per_update);
  state.counters["rebase_us/update"] =
      benchmark::Counter((after.rebase_us - before.rebase_us) * per_update);
}

void BM_BatchUpdate_AdversarialStar(benchmark::State& state) {
  run_scenario(state, service::Scenario::kAdversarialStar);
}

void BM_BatchUpdate_SocialMix(benchmark::State& state) {
  run_scenario(state, service::Scenario::kSocialMix);
}

// One engine round of 16-wide grid blocks inside a 2^15-vertex graph.
// `work` is the round's off-critical-path work (Σ block sizes − the
// largest), what a perfect team takes off the calling thread. Two shapes:
//   shape 0 — a dominant block of kDominant vertices plus three satellites
//             of work / 3 vertices (a map_churn round);
//   shape 1 — sixteen equal blocks of work / 15 vertices (many small
//             components, none dominant).
// Three modes: 0 steps the round on the calling thread (1 worker), 1 on a
// 4-worker team forced to fan out whatever the slack, 2 under the real
// dispatch of a 4-worker team (team only at work >= kParallelRoundWork).
// The serial cutoff covers every block, so each finishes in its first step
// and a run is exactly one round. Each iteration is one run_components
// call, so the team rows also pay the per-run worker scratch a batch pays.
void BM_RerootRound(benchmark::State& state) {
  constexpr Vertex kCapacity = 1 << 15;
  constexpr Vertex kWidth = 16;
  constexpr Vertex kDominant = 4096;
  const int mode = static_cast<int>(state.range(0));
  const bool equal = state.range(1) == 1;
  const std::int64_t work = state.range(2);
  std::vector<Vertex> sizes;
  if (equal) {
    sizes.assign(16, static_cast<Vertex>(work / 15));
  } else {
    const auto satellite = static_cast<Vertex>(work / 3);
    sizes = {kDominant, satellite, satellite, satellite};
  }
  Graph g(kCapacity);
  std::vector<Vertex> bases;
  Vertex base = 0;
  for (const Vertex size : sizes) {
    bases.push_back(base);
    for (Vertex v = 0; v < size; ++v) {
      if ((v + 1) % kWidth != 0 && v + 1 < size) g.add_edge(base + v, base + v + 1);
      if (v + kWidth < size) g.add_edge(base + v, base + v + kWidth);
    }
    base += size;
  }
  const std::vector<Vertex> parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  AdjacencyOracle oracle;
  oracle.build(g, index);
  const OracleView view(&oracle, &index, /*identity=*/true);
  std::vector<Component> round;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    Component comp;
    comp.entry = bases[c] + sizes[c] - 1;  // reroot each block at its far corner
    comp.entry_piece = 0;
    comp.budget = sizes[c];
    comp.pieces = {Piece::subtree(index.root_of(bases[c]))};
    round.push_back(std::move(comp));
  }
  Rerooter engine(index, view, RerootStrategy::kPaper, nullptr, mode == 0 ? 1 : 4,
                  /*serial_cutoff=*/kDominant, &g);
  detail::set_force_round_team(mode == 1);
  std::vector<Vertex> out = parent;
  for (auto _ : state) {
    std::vector<Component> active = round;
    benchmark::DoNotOptimize(engine.run_components(std::move(active), out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  detail::set_force_round_team(false);
  Vertex largest = 0;
  Vertex total = 0;
  for (const Vertex size : sizes) {
    largest = std::max(largest, size);
    total += size;
  }
  state.counters["off_critical_work"] = static_cast<double>(total - largest);
}

BENCHMARK(BM_RerootRound)
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {192, 384, 768, 1536, 3072, 6144, 12288}})
    ->ArgNames({"mode", "shape", "work"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

BENCHMARK(BM_BatchUpdate_AdversarialStar)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 15}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_BatchUpdate_SocialMix)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 15}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace pardfs
