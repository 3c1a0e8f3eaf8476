// E12: thread scaling of the parallel rerooting engine.
//
// The engine steps the components of a global round concurrently on a
// worker team (rerooter.cpp) when the round has parallel slack; the inner
// query primitives parallelize over sources through the same pram facade.
// This bench measures the end-to-end time of a fixed replay of
// DynamicDfs::apply_batch batches at 1/2/4/8 workers on the scenarios where
// rerooting dominates: adversarial_star (every spoke toggle reroots a Θ(n)
// ring subtree), social_mix (power-law hub churn) and dynamic_map (the
// map_churn grid with vertex deletes and fresh-id inserts).
// The maintained forest is identical at every thread count (the engine's
// determinism contract, pinned in tests/test_parallel_engine.cpp) — only
// wall-clock may move. Real speedup needs real cores: on a single-core host
// every team size collapses to ~1×.
//
// BM_StaticRebuild_DynamicMap is the from-scratch side of the batch_cap gate
// (bench/gates.py): a static DFS of the dynamic_map row's initial graph plus
// its TreeIndex and D, on one thread. A capped batch (the 1-thread
// dynamic_map row's batch_us counter) must not cost much more than that
// rebuild (DESIGN.md §9, the work cap). BM_StaticRebuild_SocialMix is the
// same rebuild for the social_mix row (EXPERIMENTS.md E23).
//
// BM_RerootRound measures the per-round fan-out decision behind
// Rerooter::kParallelRoundWork: one engine round, stepped on the calling
// thread, on a forced 4-worker team and under the real dispatch, swept over
// the round's off-critical-path work for two round shapes.
//
// BM_TeamPickup measures how fast the pram pool's parked workers join a
// region (pram::detail::run_team): each of `team` slots busy-waits `slot_us`
// microseconds, and the row reports the region's wall time over one slot
// (`wall_per_slot`: 1 when every slot ran at once, `team` when one thread
// ran them all) and how many distinct threads ran a slot (`threads`).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
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

// Every BM_BatchUpdate row does the same fixed work: the scenario stream is
// recorded once as kReplayBatches batches of epoch_period updates (the
// largest batch that stays within the Theorem 9 budget, so the rows keep
// measuring the predicted cap and the rounds; a service drain may be
// larger), and each iteration replays all of them on a fresh engine. Rows
// therefore compare across builds and thread counts; the reported time is
// one replay.
constexpr int kReplayBatches = 8;

void run_scenario(benchmark::State& state, service::Scenario scenario) {
  const int threads = static_cast<int>(state.range(0));
  const auto n = static_cast<Vertex>(state.range(1));
  // The knob pins both the engine's worker team and the pram facade (inner
  // source-parallel query reductions), so "1 thread" is genuinely serial.
  pram::set_num_threads(threads);
  const service::WorkloadSpec spec{scenario, n, 42};
  const Graph initial = service::make_initial_graph(spec);
  const std::size_t batch_size =
      DynamicDfs(initial, RerootStrategy::kPaper, nullptr, threads).epoch_period();
  std::vector<std::vector<GraphUpdate>> stream(kReplayBatches);
  {
    service::WorkloadDriver driver(spec);
    for (auto& batch : stream) {
      for (std::size_t i = 0; i < batch_size; ++i) batch.push_back(driver.next());
    }
  }
  std::uint64_t updates = 0;
  std::uint64_t rounds = 0;
  // E13 phase breakdown, summed over the replays only (engine construction
  // rebases too): mark-and-delta over the registry's cumulative series
  // (DESIGN.md §11).
  UpdatePhaseBreakdown phases;
  std::optional<DynamicDfs> dfs;  // replaced while paused: teardown is untimed
  for (auto _ : state) {
    state.PauseTiming();
    dfs.emplace(initial, RerootStrategy::kPaper, nullptr, threads);
    const UpdatePhaseBreakdown before = DynamicDfs::phase_breakdown();
    state.ResumeTiming();
    for (const auto& batch : stream) {
      dfs->apply_batch(batch);
      updates += batch.size();
      rounds += dfs->last_stats().global_rounds;
    }
    state.PauseTiming();
    const UpdatePhaseBreakdown after = DynamicDfs::phase_breakdown();
    phases.patch_us += after.patch_us - before.patch_us;
    phases.reroot_us += after.reroot_us - before.reroot_us;
    phases.index_rebuild_us += after.index_rebuild_us - before.index_rebuild_us;
    phases.rebase_us += after.rebase_us - before.rebase_us;
    state.ResumeTiming();
  }
  pram::set_num_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(updates));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["batch_size"] = static_cast<double>(batch_size);
  state.counters["batches"] = static_cast<double>(kReplayBatches);
  // Real time per replayed batch (µs): the inverted rate of batches per µs.
  // The batch_cap gate (bench/gates.py) divides it by a rebuild.
  state.counters["batch_us"] = benchmark::Counter(
      static_cast<double>(kReplayBatches) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["engine_rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  // Per absorbed update (µs): how much of a batch is rerooting (the part
  // the worker team parallelizes) vs index rebuild / epoch rebase / patching.
  const double per_update =
      updates > 0 ? 1.0 / static_cast<double>(updates) : 0.0;
  state.counters["patch_us/update"] = benchmark::Counter(phases.patch_us * per_update);
  state.counters["reroot_us/update"] =
      benchmark::Counter(phases.reroot_us * per_update);
  state.counters["index_rebuild_us/update"] =
      benchmark::Counter(phases.index_rebuild_us * per_update);
  state.counters["rebase_us/update"] =
      benchmark::Counter(phases.rebase_us * per_update);
}

void BM_BatchUpdate_AdversarialStar(benchmark::State& state) {
  run_scenario(state, service::Scenario::kAdversarialStar);
}

void BM_BatchUpdate_SocialMix(benchmark::State& state) {
  run_scenario(state, service::Scenario::kSocialMix);
}

// The map_churn engine workload: grid map, vertex deletes and fresh-id
// inserts; reroot_us/update is the row the leftover grouping moves.
void BM_BatchUpdate_DynamicMap(benchmark::State& state) {
  run_scenario(state, service::Scenario::kDynamicMap);
}

void run_static_rebuild(benchmark::State& state, service::Scenario scenario) {
  const auto n = static_cast<Vertex>(state.range(0));
  pram::set_num_threads(1);
  const Graph g = service::make_initial_graph({scenario, n, 42});
  // Reused across iterations, as the engine reuses its retired buffers.
  TreeIndex index;
  AdjacencyOracle oracle;
  for (auto _ : state) {
    const std::vector<Vertex> parent = static_dfs(g);
    index.build(parent, g.alive());
    oracle.build(g, index);
    benchmark::DoNotOptimize(parent.data());
    benchmark::ClobberMemory();
  }
  pram::set_num_threads(0);
  state.counters["n"] = static_cast<double>(g.num_vertices());
  state.counters["m"] = static_cast<double>(g.num_edges());
}

void BM_StaticRebuild_SocialMix(benchmark::State& state) {
  run_static_rebuild(state, service::Scenario::kSocialMix);
}

void BM_StaticRebuild_DynamicMap(benchmark::State& state) {
  run_static_rebuild(state, service::Scenario::kDynamicMap);
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
  Rerooter engine(index, g, view, RerootStrategy::kPaper, nullptr,
                  mode == 0 ? 1 : 4, /*serial_cutoff=*/kDominant);
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

void BM_TeamPickup(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int team = static_cast<int>(state.range(0));
  const auto slot = std::chrono::microseconds(state.range(1));
  std::vector<std::thread::id> ran_on(static_cast<std::size_t>(team));
  double wall_s = 0.0;
  double threads = 0.0;
  for (auto _ : state) {
    // Idle past the workers' spin window first, so every region starts with
    // the pool parked, as one does after a writer's serial stretch.
    state.PauseTiming();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    state.ResumeTiming();
    const auto t0 = Clock::now();
    pram::detail::run_team(team, [&](int t) {
      ran_on[static_cast<std::size_t>(t)] = std::this_thread::get_id();
      const auto until = Clock::now() + slot;
      while (Clock::now() < until) {
      }
    });
    wall_s += std::chrono::duration<double>(Clock::now() - t0).count();
    std::sort(ran_on.begin(), ran_on.end());
    threads +=
        static_cast<double>(std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["wall_per_slot"] =
      wall_s / iters / std::chrono::duration<double>(slot).count();
  state.counters["threads"] = threads / iters;
}

BENCHMARK(BM_TeamPickup)
    ->ArgsProduct({{2, 4}, {100, 500, 2000}})
    ->ArgNames({"team", "slot_us"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

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

BENCHMARK(BM_StaticRebuild_SocialMix)->Arg(1 << 15)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_BatchUpdate_DynamicMap)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 14}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_StaticRebuild_DynamicMap)->Arg(1 << 14)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pardfs
