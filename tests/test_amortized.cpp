// Fixed epoch periods (the paper's closing open question, EXPERIMENTS.md
// E10): correctness across the whole period knob, and the accounting of
// rebuilds. The policy under test: an epoch closes after `period` structural
// updates, and the rebase runs just before the next structural update; back
// edges never count.
#include <gtest/gtest.h>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

DynamicDfs with_period(Graph g, std::size_t period) {
  return DynamicDfs(std::move(g), RerootStrategy::kPaper, nullptr, 0, -1, {}, period);
}

// Draws an edge insert or delete that changes the forest: a tree-edge delete
// or a cross-edge insert.
GraphUpdate next_structural(const DynamicDfs& dfs, Rng& rng) {
  for (;;) {
    GraphUpdate u;
    EXPECT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0, 0, u));
    const bool structural =
        u.kind == GraphUpdate::Kind::kDeleteEdge
            ? dfs.parent_of(u.v) == u.u || dfs.parent_of(u.u) == u.v
            : !dfs.tree().is_back_edge(u.u, u.v);
    if (structural) return u;
  }
}

class AmortizedSweep : public ::testing::TestWithParam<int> {};

TEST_P(AmortizedSweep, ForestStaysValidForEveryPeriod) {
  const int period = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(period));
  Graph g = gen::random_connected(60, 100, rng);
  DynamicDfs dfs = with_period(g, static_cast<std::size_t>(period));
  EXPECT_EQ(dfs.epoch_period(), static_cast<std::size_t>(period));
  for (int step = 0; step < 80; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0.4, 0.4, u));
    dfs.apply(u);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "period=" << period << " step=" << step << ": "
                        << val.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(Periods, AmortizedSweep, ::testing::Values(1, 2, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "period" + std::to_string(info.param);
                         });

TEST(Amortized, RebuildCountMatchesPeriod) {
  // S structural edge updates at period p: the constructor's build, then one
  // rebase before updates p+1, 2p+1, ... — 1 + (S - 1) / p builds in all.
  // One patch per update keeps every epoch under its 4p patch budget.
  constexpr std::size_t kPeriod = 4;
  constexpr std::size_t kStructural = 20;
  Rng rng(5);
  DynamicDfs dfs = with_period(gen::random_connected(40, 60, rng), kPeriod);
  for (std::size_t i = 0; i < kStructural; ++i) dfs.apply(next_structural(dfs, rng));
  EXPECT_EQ(dfs.epoch_rebuilds(), 1 + (kStructural - 1) / kPeriod);
  EXPECT_EQ(dfs.updates_since_rebase(), (kStructural - 1) % kPeriod + 1);
}

TEST(Amortized, PeriodOneRebasesBeforeEveryStructuralUpdate) {
  Rng rng(6);
  DynamicDfs dfs = with_period(gen::random_connected(20, 30, rng), 1);
  EXPECT_EQ(dfs.epoch_period(), 1u);
  for (std::size_t i = 1; i <= 6; ++i) {
    dfs.apply(next_structural(dfs, rng));
    EXPECT_EQ(dfs.epoch_rebuilds(), i) << "structural update " << i;
    EXPECT_EQ(dfs.updates_since_rebase(), 1u);
  }
  // A back-edge delete is one patch: no rebase, however full the epoch.
  for (const Edge& e : dfs.graph().edges()) {
    if (dfs.parent_of(e.u) == e.v || dfs.parent_of(e.v) == e.u) continue;
    dfs.apply(GraphUpdate::delete_edge(e.u, e.v));
    break;
  }
  EXPECT_EQ(dfs.epoch_rebuilds(), 6u);
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Amortized, PeriodZeroIsTheLogNPolicy) {
  Rng rng(8);
  const Graph g = gen::random_connected(100, 150, rng);
  EXPECT_EQ(with_period(g, 0).epoch_period(), DynamicDfs(g).epoch_period());
  EXPECT_EQ(DynamicDfs(g).epoch_period(), 7u) << "ceil(log2 100)";
}

TEST(FaultTolerantRebase, RebaseMakesCurrentStateTheBaseline) {
  // At period 2 every third structural update finds its epoch full: the
  // rebase makes the current forest the new base, so the update that
  // triggered it is the first one the fresh epoch counts.
  Rng rng(9);
  DynamicDfs dfs = with_period(gen::random_connected(30, 50, rng), 2);
  for (std::size_t i = 1; i <= 7; ++i) {
    dfs.apply(next_structural(dfs, rng));
    EXPECT_EQ(dfs.epoch_rebuilds(), 1 + (i - 1) / 2) << "structural update " << i;
    EXPECT_EQ(dfs.updates_since_rebase(), (i - 1) % 2 + 1) << "structural update " << i;
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "structural update " << i << ": " << val.reason;
  }
}

TEST(FaultTolerantRebase, LongRunBeyondLogN) {
  // Never rebasing degrades past ~log n updates; a fixed period keeps
  // arbitrarily long runs correct.
  Rng rng(7);
  Graph g = gen::random_connected(50, 80, rng);
  DynamicDfs dfs = with_period(g, 6);
  for (int step = 0; step < 100; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1, 1, 0.3, 0.3, u));
    dfs.apply(u);
    ASSERT_LE(dfs.updates_since_rebase(), 6u);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "step " << step << ": " << val.reason;
  }
  EXPECT_GT(dfs.epoch_rebuilds(), 1u);
}

}  // namespace
}  // namespace pardfs
