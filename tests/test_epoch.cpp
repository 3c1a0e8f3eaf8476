// Epoch policy tests for DynamicDfs: back-edge updates must never rebuild
// anything, structural updates must amortize the O(m log n) base rebuild
// over Θ(log n)-length epochs, and the maintained forest must stay a valid
// DFS forest across many epoch boundaries under a long mixed update stream.
#include <gtest/gtest.h>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

TEST(Epoch, BackEdgeUpdatesPerformZeroRebuilds) {
  // On a path graph the DFS tree is the path itself: (a, b) with a < b is
  // always an ancestor pair, i.e. a back edge.
  DynamicDfs dfs(gen::path(50));
  const std::size_t rebuilds = dfs.epoch_rebuilds();
  const std::vector<Vertex> before(dfs.parent().begin(), dfs.parent().end());
  for (int round = 0; round < 20; ++round) {
    dfs.insert_edge(0, 30);
    dfs.insert_edge(5, 45);
    dfs.delete_edge(0, 30);
    dfs.delete_edge(5, 45);
  }
  EXPECT_EQ(dfs.epoch_rebuilds(), rebuilds) << "back edges must not rebuild";
  EXPECT_EQ(dfs.updates_since_rebase(), 0u) << "back edges are not structural";
  EXPECT_EQ(before, std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end()));
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Epoch, StructuralUpdatesCrossEpochBoundary) {
  Rng rng(7);
  DynamicDfs dfs(gen::random_connected(128, 512, rng));
  const std::size_t rebuilds = dfs.epoch_rebuilds();
  const std::size_t period = dfs.epoch_period();
  EXPECT_GE(period, 1u);
  // Deleting tree edges is always structural; period + 1 of them must close
  // the epoch.
  for (std::size_t i = 0; i <= period; ++i) {
    const auto parent = dfs.parent();
    Vertex child = kNullVertex;
    for (Vertex v = 0; v < dfs.graph().capacity(); ++v) {
      if (dfs.graph().is_alive(v) &&
          parent[static_cast<std::size_t>(v)] != kNullVertex) {
        child = v;
        break;
      }
    }
    ASSERT_NE(child, kNullVertex);
    dfs.delete_edge(dfs.parent_of(child), child);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
  EXPECT_GT(dfs.epoch_rebuilds(), rebuilds);
  EXPECT_LE(dfs.updates_since_rebase(), period);
}

TEST(Epoch, LongMixedStreamStaysValidAcrossEpochs) {
  // ≥500 mixed updates (edge/vertex insert+delete) with the forest checked
  // against tree/validation after every single one; epoch boundaries are
  // crossed many times along the way.
  Rng rng(20260729);
  Graph g = gen::random_connected(120, 360, rng);
  DynamicDfs dfs(g);
  const std::size_t rebuilds_at_start = dfs.epoch_rebuilds();
  int applied = 0;
  while (applied < 500) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(dfs.graph(), rng, 1.0, 1.0, 0.3, 0.3, u))
        << "stream became infeasible at step " << applied;
    dfs.apply(u);
    ++applied;
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "step " << applied << ": " << val.reason;
  }
  const std::size_t crossed = dfs.epoch_rebuilds() - rebuilds_at_start;
  EXPECT_GE(crossed, 5u) << "the stream must cross several epoch boundaries";
  EXPECT_LT(crossed, 500u) << "rebuilds must be amortized, not per-update";
}

TEST(Epoch, PeriodGrowsLogarithmically) {
  // The epoch period is the amortization knob (DESIGN.md §5): it must track
  // ceil(log2 n) exactly across four orders of magnitude — neither constant
  // (which would over-rebuild) nor polynomial (which would let Theorem 9
  // patch lists grow past their budget).
  std::size_t previous = 0;
  for (int k = 8; k <= 16; ++k) {
    const Vertex n = static_cast<Vertex>(1) << k;
    DynamicDfs dfs(gen::path(n));
    EXPECT_EQ(dfs.epoch_period(), static_cast<std::size_t>(k))
        << "n = 2^" << k << " must give a period of exactly k";
    EXPECT_GT(dfs.epoch_period(), previous) << "monotone in n";
    previous = dfs.epoch_period();
  }
  // Θ(log n), not Θ(n): squaring n (2^8 -> 2^16) only doubles the period.
  DynamicDfs small(gen::path(1 << 8));
  DynamicDfs large(gen::path(1 << 16));
  EXPECT_EQ(large.epoch_period(), 2 * small.epoch_period());
  // Off-power sizes round up: 2^10 + 1 vertices need 11-update epochs.
  DynamicDfs odd(gen::path((1 << 10) + 1));
  EXPECT_EQ(odd.epoch_period(), 11u);
}

TEST(Epoch, MovedInstanceKeepsEpochState) {
  Rng rng(3);
  DynamicDfs a(gen::random_connected(64, 128, rng));
  DynamicDfs b(std::move(a));
  // The moved-into instance must keep working across an epoch boundary (the
  // oracle's base pointer is re-bound on move).
  for (std::size_t i = 0; i <= b.epoch_period(); ++i) {
    const auto parent = b.parent();
    Vertex child = kNullVertex;
    for (Vertex v = 0; v < b.graph().capacity(); ++v) {
      if (b.graph().is_alive(v) &&
          parent[static_cast<std::size_t>(v)] != kNullVertex) {
        child = v;
        break;
      }
    }
    ASSERT_NE(child, kNullVertex);
    b.delete_edge(b.parent_of(child), child);
    ASSERT_TRUE(validate_dfs_forest(b.graph(), b.parent()).ok);
  }
}

}  // namespace
}  // namespace pardfs
