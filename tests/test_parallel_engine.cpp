// The parallel rerooting engine's determinism contract: one update stream,
// any worker-team size, byte-identical forests and stats. Components of a
// round step on real threads (rerooter.cpp), so this pins
//   * the final parent array at 1/2/4/8 workers (single-update path and the
//     combined batch path),
//   * every RerootStats counter (round counts and the grouping sweep's
//     grouping_scanned included),
//   * the facade-default knob (num_threads = 0) against an explicit team,
//   * the (pos, u, v) total order of best_edge_to_chain, which must not
//     depend on piece-iteration order,
//   * the per-round dispatch: rounds with and without parallel slack give
//     the same result under the default team and 1/2/4/8 explicit workers,
//     and no team wakes for a run without slack.
// The scenario streams below are far too small to have slack, so their
// pins force every multi-component round onto the team (ForceRoundTeam).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/dynamic_dfs.hpp"
#include "core/rerooter_internal.hpp"
#include "obs/metrics.hpp"
#include "pram/parallel.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"

namespace pardfs {
namespace {

using FingerPrint = std::array<std::uint64_t, 16>;

FingerPrint pack(const RerootStats& s) {
  return {s.global_rounds, s.query_batches,  s.components_processed,
          s.vertices_traversed, s.disintegrating, s.path_halving,
          s.disconnecting,      s.heavy_l,        s.heavy_p,
          s.heavy_r,            s.heavy_special,  s.fallbacks,
          s.max_phase,          s.grouping_scanned, s.serial_finishes,
          s.recomputes};
}

struct StreamResult {
  std::vector<Vertex> parent;
  std::vector<FingerPrint> stats;  // one per applied update / batch
  // Batches with a vertex insert before their last update, and how many of
  // those that fit one epoch ran in more than one index rebuild.
  std::size_t mid_batch_inserts = 0;
  std::size_t split_insert_batches = 0;

  bool operator==(const StreamResult& o) const {
    return parent == o.parent && stats == o.stats;
  }
};

// Drives `count` updates of the scenario stream through a fresh DynamicDfs
// configured with `threads` engine workers and `serial_cutoff`, `chunk`
// updates at a time (chunk 1 = the per-update path, larger = the combined
// batch path).
StreamResult drive(service::Scenario scenario, Vertex n, int count,
                   std::size_t chunk, int threads, std::int32_t serial_cutoff = -1) {
  const service::WorkloadSpec spec{scenario, n, 77};
  service::WorkloadDriver driver(spec);
  DynamicDfs dfs(service::make_initial_graph(spec), RerootStrategy::kPaper,
                 nullptr, threads, serial_cutoff);
  StreamResult result;
  std::vector<GraphUpdate> batch;
  for (int applied = 0; applied < count;) {
    batch.clear();
    for (std::size_t j = 0; j < chunk && applied < count; ++j, ++applied) {
      batch.push_back(driver.next());
    }
    if (chunk == 1) {
      dfs.apply(batch.front());
    } else {
      const std::size_t period = dfs.epoch_period();
      const BatchStats bs = dfs.apply_batch(batch);
      if (std::any_of(batch.begin(), batch.end() - 1, [](const GraphUpdate& u) {
            return u.kind == GraphUpdate::Kind::kInsertVertex;
          })) {
        ++result.mid_batch_inserts;
        if (bs.structural <= period && bs.index_rebuilds != 1) {
          ++result.split_insert_batches;
        }
      }
    }
    result.stats.push_back(pack(dfs.last_stats()));
  }
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(val.ok) << val.reason;
  result.parent.assign(dfs.parent().begin(), dfs.parent().end());
  return result;
}

// Rounds the engine ran serially or on the team, by the dispatch counter.
std::uint64_t rounds_in_mode(const char* mode) {
  return obs::Registry::global()
      .counter("pardfs_reroot_round_dispatch_total",
               std::string("mode=\"") + mode + "\"")
      .value();
}

#if defined(PARDFS_NO_METRICS)
constexpr bool kRecording = false;
#else
constexpr bool kRecording = true;
#endif

// Keeps every multi-component round of a team of two or more on the team
// for the scope, so small inputs still exercise the fan-out.
struct ForceRoundTeam {
  ForceRoundTeam() { detail::set_force_round_team(true); }
  ~ForceRoundTeam() { detail::set_force_round_team(false); }
};

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<service::Scenario, std::size_t>> {};

TEST_P(ParallelDeterminism, SameTreeAndStatsAtAnyThreadCount) {
  const auto [scenario, chunk] = GetParam();
  const ForceRoundTeam force;
  // Batches run under the default work cap and again with serial_cutoff = 0,
  // the pure rounds. Under the cap, a batch that carries a vertex insert
  // recomputes the insert's component in one round, so social_mix's batches
  // leave multi-component rounds for the team only on the uncapped engine.
  const std::vector<std::int32_t> cutoffs =
      chunk == 1 ? std::vector<std::int32_t>{-1} : std::vector<std::int32_t>{-1, 0};
  for (const std::int32_t cutoff : cutoffs) {
    SCOPED_TRACE("serial_cutoff=" + std::to_string(cutoff));
    const StreamResult serial = drive(scenario, 128, 80, chunk, 1, cutoff);
    const std::uint64_t team0 = rounds_in_mode("team");
    for (const int threads : {2, 4, 8}) {
      const StreamResult parallel = drive(scenario, 128, 80, chunk, threads, cutoff);
      ASSERT_EQ(serial.parent, parallel.parent)
          << "parent array diverged at " << threads << " threads";
      ASSERT_EQ(serial.stats, parallel.stats)
          << "RerootStats diverged at " << threads << " threads";
    }
    // Each adversarial_star reroot is one component, so only social_mix has
    // multi-component rounds to fan out.
    if (scenario == service::Scenario::kSocialMix && cutoff == cutoffs.back()) {
      EXPECT_EQ(rounds_in_mode("team") > team0, kRecording)
          << "the stream never fanned a round out";
    }
    // dynamic_map batches go over the work cap (DESIGN.md §9) and carry
    // vertex inserts mid-batch, which join their segment: the compared
    // forests and stats include recomputed components with new ids.
    if (scenario == service::Scenario::kDynamicMap && cutoff < 0) {
      std::uint64_t recomputes = 0;
      for (const FingerPrint& f : serial.stats) recomputes += f.back();  // recomputes
      EXPECT_GT(recomputes, 0u) << "no batch took the work cap";
      EXPECT_GT(serial.mid_batch_inserts, 0u) << "no batch inserted a vertex mid-batch";
      EXPECT_EQ(serial.split_insert_batches, 0u)
          << "an epoch-sized batch with a vertex insert rebuilt the index twice";
    }
  }
}

const auto kParamName = [](const auto& info) {
  const std::size_t chunk = std::get<1>(info.param);
  return std::string(service::scenario_name(std::get<0>(info.param))) +
         (chunk == 1   ? std::string("_single")
          : chunk == 8 ? std::string("_batch")
                       : "_batch" + std::to_string(chunk));
};

INSTANTIATE_TEST_SUITE_P(
    StarAndSocial, ParallelDeterminism,
    ::testing::Combine(::testing::Values(service::Scenario::kAdversarialStar,
                                         service::Scenario::kSocialMix),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    kParamName);

// Batches of 14, map_churn's mean batch: most carry a vertex insert.
INSTANTIATE_TEST_SUITE_P(
    CappedMap, ParallelDeterminism,
    ::testing::Combine(::testing::Values(service::Scenario::kDynamicMap),
                       ::testing::Values(std::size_t{8}, std::size_t{14})),
    kParamName);

TEST(ParallelEngine, FaultTolerantPathDeterministicAcrossThreadCounts) {
  // A kNeverRebase engine drives the same engine through non-identity
  // oracle views (every query decomposes over the base tree); its parallel
  // rounds must honor the same contract.
  const auto run_ft = [](int threads) {
    const service::WorkloadSpec spec{service::Scenario::kAdversarialStar, 96, 5};
    service::WorkloadDriver driver(spec);
    DynamicDfs ft(service::make_initial_graph(spec), RerootStrategy::kPaper,
                  nullptr, threads, -1, {}, DynamicDfs::kNeverRebase);
    std::vector<FingerPrint> stats;
    for (int i = 0; i < 6; ++i) {  // within the k <= log n batch budget
      ft.apply(driver.next());
      stats.push_back(pack(ft.last_stats()));
    }
    EXPECT_EQ(ft.epoch_rebuilds(), 1u);
    const auto val = validate_dfs_forest(ft.graph(), ft.parent());
    EXPECT_TRUE(val.ok) << val.reason;
    return std::make_pair(
        std::vector<Vertex>(ft.parent().begin(), ft.parent().end()), stats);
  };
  const ForceRoundTeam force;
  const auto serial = run_ft(1);
  for (const int threads : {2, 4, 8}) {
    const auto parallel = run_ft(threads);
    ASSERT_EQ(serial.first, parallel.first)
        << "fault-tolerant parent array diverged at " << threads << " threads";
    ASSERT_EQ(serial.second, parallel.second)
        << "fault-tolerant RerootStats diverged at " << threads << " threads";
  }
}

TEST(ParallelEngine, FacadeDefaultKnobMatchesExplicitTeam) {
  // num_threads = 0 resolves to the pram facade's global setting; pin that
  // path against both an explicit team and a serial run.
  const ForceRoundTeam force;
  pram::set_num_threads(3);
  const StreamResult facade =
      drive(service::Scenario::kAdversarialStar, 96, 48, 8, 0);
  pram::set_num_threads(0);
  const StreamResult serial =
      drive(service::Scenario::kAdversarialStar, 96, 48, 8, 1);
  const StreamResult explicit3 =
      drive(service::Scenario::kAdversarialStar, 96, 48, 8, 3);
  EXPECT_EQ(facade, serial);
  EXPECT_EQ(facade, explicit3);
}

// ---- round dispatch ----------------------------------------------------------

// One engine run over pre-built components: 16-wide grid blocks of the given
// sizes side by side in one graph, each rerooted at its far corner, under
// the update wrappers' serial cutoff (so large blocks take several rounds).
struct RoundShape {
  Graph g;
  std::vector<Vertex> parent;
  TreeIndex index;
  AdjacencyOracle oracle;
  std::vector<Component> comps;

  explicit RoundShape(const std::vector<Vertex>& sizes) : g(total(sizes)) {
    constexpr Vertex kWidth = 16;
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
    parent = static_dfs(g);
    index.build(parent);
    oracle.build(g, index);
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      Component comp;
      comp.entry = bases[c] + sizes[c] - 1;
      comp.entry_piece = 0;
      comp.budget = sizes[c];
      comp.pieces = {Piece::subtree(index.root_of(bases[c]))};
      comps.push_back(std::move(comp));
    }
  }

  static Vertex total(const std::vector<Vertex>& sizes) {
    Vertex sum = 0;
    for (const Vertex s : sizes) sum += s;
    return sum;
  }

  std::pair<std::vector<Vertex>, FingerPrint> run(int threads) const {
    const OracleView view(&oracle, &index, /*identity=*/true);
    Rerooter engine(index, view, RerootStrategy::kPaper, nullptr, threads,
                    Rerooter::default_serial_cutoff(g.capacity()), &g);
    std::vector<Vertex> out = parent;
    const RerootStats stats = engine.run_components(comps, out);
    const auto val = validate_dfs_forest(g, out);
    EXPECT_TRUE(val.ok) << val.reason;
    return {out, pack(stats)};
  }
};

// A star of four equal blocks: 3072 vertices off the critical path in the
// first round, above the crossover.
const std::vector<Vertex> kSlackShape = {1024, 1024, 1024, 1024};
// One dominant grid with three small satellites. Every round's components
// are disjoint subsets of these 1888 vertices, below the crossover, so no
// round of the run can have slack.
const std::vector<Vertex> kNoSlackShape = {1600, 96, 96, 96};

TEST(ParallelEngine, RoundDispatchGivesTheSameResultAtAnyTeam) {
  pram::set_num_threads(4);
  for (const auto& sizes : {kSlackShape, kNoSlackShape}) {
    const RoundShape shape(sizes);
    const auto facade = shape.run(0);
    for (const int threads : {1, 2, 4, 8}) {
      const auto run = shape.run(threads);
      EXPECT_EQ(facade.first, run.first)
          << "parent array, default team vs " << threads << " workers";
      EXPECT_EQ(facade.second, run.second)
          << "RerootStats, default team vs " << threads << " workers";
    }
  }
  pram::set_num_threads(0);
}

TEST(ParallelEngine, TeamWakesOnlyForRoundsWithSlack) {
  ASSERT_LT(RoundShape::total(kNoSlackShape), Rerooter::kParallelRoundWork);
  ASSERT_GE(3 * kSlackShape.front(), Rerooter::kParallelRoundWork);
  pram::set_num_threads(4);
  const RoundShape no_slack(kNoSlackShape);
  const std::uint64_t team0 = rounds_in_mode("team");
  const std::uint64_t serial0 = rounds_in_mode("serial");
  // Neither the default team nor an explicit one wakes without slack.
  no_slack.run(0);
  no_slack.run(4);
  EXPECT_EQ(rounds_in_mode("team"), team0) << "a round without slack woke the team";
  EXPECT_EQ(rounds_in_mode("serial") > serial0, kRecording);

  // Both take the rounds that have slack.
  const RoundShape slack(kSlackShape);
  slack.run(0);
  const std::uint64_t team1 = rounds_in_mode("team");
  EXPECT_EQ(team1 > team0, kRecording);
  slack.run(4);
  EXPECT_EQ(rounds_in_mode("team") > team1, kRecording);
  pram::set_num_threads(0);
}

// ---- best_edge_to_chain total order ---------------------------------------

struct ChainFixture {
  // Tree: 0 - 1 - 2 with leaves 3, 4 under 2 and 5 under 2; extra graph
  // edges give the leaves back edges into the chain [2, 1, 0].
  Graph g{6};
  std::vector<Vertex> parent;
  TreeIndex index;
  AdjacencyOracle oracle;

  ChainFixture() {
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(2, 4);
    g.add_edge(2, 5);
    g.add_edge(3, 1);  // pieces {3} and {4} both reach chain vertex 1:
    g.add_edge(4, 1);  // equal pos, tie must fall to the smaller source u
    g.add_edge(5, 0);  // piece {5} reaches vertex 0 = the largest pos
    parent = static_dfs(g);
    index.build(parent);
    oracle.build(g, index);
  }

  detail::ChainHit best(std::vector<Piece> pieces) {
    const OracleView view(&oracle, &index, /*identity=*/true);
    detail::EngineCtx ctx(index, view);
    const std::vector<Vertex> chain = {2, 1, 0};
    const std::vector<detail::Run> runs = detail::split_runs(index, chain);
    ctx.index_chain(chain);
    return detail::best_edge_to_chain(ctx, pieces, chain, runs);
  }
};

TEST(ParallelEngine, BestEdgeToChainTieBreaksOnSourceId) {
  ChainFixture f;
  ASSERT_EQ(f.parent[3], 2);  // the assumed tree shape (DFS goes 0,1,2,...)
  const std::vector<Piece> order_a = {Piece::subtree(3), Piece::subtree(4)};
  const std::vector<Piece> order_b = {Piece::subtree(4), Piece::subtree(3)};
  const detail::ChainHit a = f.best(order_a);
  const detail::ChainHit b = f.best(order_b);
  ASSERT_TRUE(a.valid());
  // Equal chain position (both hit vertex 1): the smaller source wins,
  // independent of piece-iteration order.
  EXPECT_EQ(a.edge.u, 3);
  EXPECT_EQ(a.edge.v, 1);
  EXPECT_EQ(b.edge.u, a.edge.u);
  EXPECT_EQ(b.edge.v, a.edge.v);
  EXPECT_EQ(b.pos, a.pos);
}

TEST(ParallelEngine, BestEdgeToChainPositionDominatesSourceId) {
  ChainFixture f;
  // Piece {5} hits vertex 0 (pos 2) — beats the pos-1 hits of the smaller
  // sources 3 and 4.
  const detail::ChainHit hit =
      f.best({Piece::subtree(3), Piece::subtree(4), Piece::subtree(5)});
  ASSERT_TRUE(hit.valid());
  EXPECT_EQ(hit.edge.u, 5);
  EXPECT_EQ(hit.edge.v, 0);
  EXPECT_EQ(hit.pos, 2);
}

}  // namespace
}  // namespace pardfs
