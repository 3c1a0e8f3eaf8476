// Fault-tolerant DFS (Theorem 14): a kNeverRebase DynamicDfs answers k-update
// batches without ever rebuilding D. Every intermediate and final forest must
// validate, and D must be built exactly once (epoch_rebuilds() == 1).
#include <gtest/gtest.h>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

DynamicDfs fault_tolerant(Graph g) {
  return DynamicDfs(std::move(g), RerootStrategy::kPaper, nullptr, 0, -1, {},
                    DynamicDfs::kNeverRebase);
}

// One Theorem 14 batch: roll back to the preprocessed state, then apply.
std::span<const Vertex> apply_ft(DynamicDfs& ft, std::span<const GraphUpdate> batch) {
  ft.reset_to_base();
  ft.apply_batch(batch);
  return ft.parent();
}

TEST(FaultTolerant, SingleFailureMatchesDynamic) {
  Rng rng(41);
  Graph g = gen::random_connected(60, 90, rng);
  DynamicDfs ft = fault_tolerant(g);
  for (const Edge& e : g.edges()) {
    const GraphUpdate batch[] = {GraphUpdate::delete_edge(e.u, e.v)};
    const auto parent = apply_ft(ft, batch);
    const auto val = validate_dfs_forest(ft.graph(), parent);
    ASSERT_TRUE(val.ok) << "delete (" << e.u << "," << e.v << "): " << val.reason;
  }
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerant, VertexFailures) {
  Rng rng(42);
  Graph g = gen::random_connected(50, 70, rng);
  DynamicDfs ft = fault_tolerant(g);
  for (Vertex v = 0; v < 50; ++v) {
    const GraphUpdate batch[] = {GraphUpdate::delete_vertex(v)};
    const auto parent = apply_ft(ft, batch);
    const auto val = validate_dfs_forest(ft.graph(), parent);
    ASSERT_TRUE(val.ok) << "delete vertex " << v << ": " << val.reason;
  }
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

class FaultTolerantBatch : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FaultTolerantBatch, KUpdateBatchesStayValid) {
  const auto [seed, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31337 + 7);
  Graph g = gen::random_connected(70, 140, rng);
  DynamicDfs ft = fault_tolerant(g);
  for (int batch_trial = 0; batch_trial < 8; ++batch_trial) {
    // Each batch is drawn sequentially feasible on the preprocessed graph,
    // then applied as one apply_batch call.
    ft.reset_to_base();
    Graph expected = ft.graph();
    std::vector<GraphUpdate> batch;
    for (int i = 0; i < k; ++i) {
      GraphUpdate u;
      ASSERT_TRUE(gen::random_update(expected, rng, 1, 1, 0.4, 0.4, u));
      expected.apply(u);
      batch.push_back(std::move(u));
    }
    const auto parent = apply_ft(ft, batch);
    const auto val = validate_dfs_forest(ft.graph(), parent);
    ASSERT_TRUE(val.ok) << "seed=" << seed << " k=" << k << " batch "
                        << batch_trial << ": " << val.reason;
    EXPECT_EQ(ft.graph().num_edges(), expected.num_edges());
    EXPECT_EQ(ft.epoch_rebuilds(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, FaultTolerantBatch,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 3, 5, 8)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
                           return "seed" + std::to_string(std::get<0>(info.param)) +
                                  "_k" + std::to_string(std::get<1>(info.param));
                         });

TEST(FaultTolerant, ResetRestoresPreprocessedState) {
  Rng rng(43);
  Graph g = gen::random_connected(40, 60, rng);
  DynamicDfs ft = fault_tolerant(g);
  const std::vector<Vertex> pristine(ft.parent().begin(), ft.parent().end());
  const std::vector<Edge> pristine_edges = ft.graph().edges();
  const Vertex capacity = ft.graph().capacity();
  GraphUpdate u;
  ASSERT_TRUE(gen::random_update(ft.graph(), rng, 0, 1, 0, 0, u));
  ft.apply(u);
  ft.apply(GraphUpdate::insert_vertex({0, 7, 19}));
  ASSERT_EQ(ft.graph().capacity(), capacity + 1);
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  ft.reset_to_base();
  EXPECT_EQ(ft.graph().capacity(), capacity);
  EXPECT_EQ(pristine, std::vector<Vertex>(ft.parent().begin(), ft.parent().end()));
  EXPECT_EQ(pristine_edges, ft.graph().edges());
  EXPECT_EQ(ft.tree().capacity(), capacity);
  EXPECT_EQ(ft.updates_since_rebase(), 0u);
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerantDeathTest, ResetNeedsNeverRebase) {
  DynamicDfs dfs(gen::path(8));
  EXPECT_DEATH(dfs.reset_to_base(), "kNeverRebase");
}

TEST(FaultTolerant, MixedBatchWithInsertions) {
  // Delete a bridge, then insert a vertex stitching the halves back.
  Graph g = gen::path(10);
  DynamicDfs ft = fault_tolerant(g);
  ft.apply(GraphUpdate::delete_edge(4, 5));
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  ft.apply(GraphUpdate::insert_vertex({4, 5}));
  const auto val = validate_dfs_forest(ft.graph(), ft.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  // All one component again.
  const Vertex nv = 10;
  TreeIndex idx;
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(ft.graph().capacity()), 1);
  idx.build(ft.parent(), alive);
  EXPECT_EQ(idx.root_of(0), idx.root_of(9));
  EXPECT_EQ(idx.root_of(nv), idx.root_of(0));
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerant, DeepRerootChainThenMoreUpdates) {
  // Adversarial for Theorem 9's path decomposition: the first update forces
  // a long reroot (path + closing back edge), so subsequent updates must
  // query current-tree paths stitched from many base segments.
  const Vertex n = 64;
  Graph g = gen::path(n);
  g.add_edge(0, n - 1);
  for (Vertex v = 0; v + 4 < n; v += 4) g.add_edge(v, v + 4);  // shortcuts
  DynamicDfs ft = fault_tolerant(g);
  ft.apply(GraphUpdate::delete_edge(n / 2 - 1, n / 2));
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  // Keep cutting near the stitch points.
  Rng rng(777);
  for (int i = 0; i < 8; ++i) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(ft.graph(), rng, 0.5, 1, 0, 0, u));
    ft.apply(u);
    const auto val = validate_dfs_forest(ft.graph(), ft.parent());
    ASSERT_TRUE(val.ok) << "update " << i << ": " << val.reason;
  }
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerant, BaseBackEdgeAboveSegmentAfterReroot) {
  // Regression for the descendant-direction probe (oracle case B): after a
  // reroot, a queried source can sit ABOVE its target segment in base
  // coordinates; its base back edges into the segment must still be found.
  // Base chain 0-1-2-3-4 with back edge (1,4).
  Graph g = gen::path(5);
  g.add_edge(1, 4);
  DynamicDfs ft = fault_tolerant(g);
  // Update 1: insert (0,4) as... it is a back edge; instead delete (3,4):
  // T(4) reattaches through (1,4) -> tree 0-1-2-3, 4 under 1.
  ft.apply(GraphUpdate::delete_edge(3, 4));
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  // Update 2: delete (1,2): T(2)={2,3} must reattach... no remaining edge
  // into {2,3} except via 1/0 chain — it detaches. The query path includes
  // segments where sources are base-ancestors; validity is the check.
  ft.apply(GraphUpdate::delete_edge(1, 2));
  const auto val = validate_dfs_forest(ft.graph(), ft.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  // Update 3: re-link through (2,4): merges components again.
  ft.apply(GraphUpdate::insert_edge(2, 4));
  const auto val2 = validate_dfs_forest(ft.graph(), ft.parent());
  ASSERT_TRUE(val2.ok) << val2.reason;
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerant, InsertedVertexThenRerootThroughIt) {
  // An inserted vertex lands on query paths as a singleton segment; force a
  // reroot whose traversal passes through it.
  Graph g = gen::path(6);
  DynamicDfs ft = fault_tolerant(g);
  ft.apply(GraphUpdate::insert_vertex({2, 5}));  // vertex 6
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  // Cut (2,3): {3,4,5} reattaches through the new vertex 6 (edge 5-6... 6
  // adjacent to 5) — the traversed path includes vertex 6.
  ft.apply(GraphUpdate::delete_edge(2, 3));
  ASSERT_TRUE(validate_dfs_forest(ft.graph(), ft.parent()).ok);
  // Another cut behind the inserted vertex.
  ft.apply(GraphUpdate::delete_edge(4, 5));
  const auto val = validate_dfs_forest(ft.graph(), ft.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

TEST(FaultTolerant, RepeatedEdgeFlipsOnSameBatch) {
  // Insert/delete the same edge repeatedly inside one batch: patch lists
  // must stay consistent (re-insertion of a base edge, re-deletion, ...).
  Graph g = gen::cycle(12);
  DynamicDfs ft = fault_tolerant(g);
  const GraphUpdate flips[] = {
      GraphUpdate::delete_edge(3, 4), GraphUpdate::insert_edge(3, 4),
      GraphUpdate::delete_edge(3, 4), GraphUpdate::insert_edge(3, 4)};
  for (const GraphUpdate& u : flips) ft.apply(u);
  const auto val = validate_dfs_forest(ft.graph(), ft.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  // The same flips as one batch, on the rolled-back state.
  const auto parent = apply_ft(ft, flips);
  const auto batch_val = validate_dfs_forest(ft.graph(), parent);
  ASSERT_TRUE(batch_val.ok) << batch_val.reason;
  EXPECT_EQ(ft.graph().num_edges(), g.num_edges());
  EXPECT_EQ(ft.epoch_rebuilds(), 1u);
}

}  // namespace
}  // namespace pardfs
