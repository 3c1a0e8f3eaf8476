// Distributed dynamic DFS (Theorem 16): CONGEST simulator primitives,
// distributed query evaluation vs. D, forest validity and round/message
// accounting shapes.
#include "dist/distributed_dfs.hpp"

#include <gtest/gtest.h>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "dist/bfs_tree.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs::dist {
namespace {

TEST(Congest, BfsTreeShape) {
  Graph g = gen::grid(4, 5);
  CongestSimulator sim(g, 4);
  const BfsTree t = sim.build_bfs_tree(0);
  EXPECT_EQ(t.num_nodes, 20);
  EXPECT_EQ(t.height, 3 + 4);  // Manhattan eccentricity of the corner
  EXPECT_EQ(t.depth[0], 0);
  EXPECT_EQ(sim.rounds(), static_cast<std::uint64_t>(t.height));
  EXPECT_GT(sim.messages(), 0u);
}

TEST(Congest, BfsCoversOnlyComponent) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  CongestSimulator sim(g, 1);
  const BfsTree t = sim.build_bfs_tree(0);
  EXPECT_EQ(t.num_nodes, 2);
  EXPECT_EQ(t.depth[2], -1);
  EXPECT_EQ(t.depth[4], -1);
}

TEST(Congest, AggregateCombinesAllContributions) {
  Graph g = gen::path(6);
  CongestSimulator sim(g, 2);
  const BfsTree t = sim.build_bfs_tree(0);
  std::vector<std::vector<std::uint64_t>> contrib(6);
  for (Vertex v = 0; v < 6; ++v) {
    contrib[static_cast<std::size_t>(v)] = {static_cast<std::uint64_t>(v), 1};
  }
  const auto combined = sim.aggregate(
      t, contrib, [](std::size_t, std::uint64_t a, std::uint64_t b) { return a + b; });
  ASSERT_EQ(combined.size(), 2u);
  EXPECT_EQ(combined[0], 0u + 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(combined[1], 6u);
}

TEST(Congest, PipelinedAccountingFormula) {
  Graph g = gen::path(10);  // BFS height 9 from vertex 0
  CongestSimulator sim(g, 3);
  const BfsTree t = sim.build_bfs_tree(0);
  sim.reset_counters();
  std::vector<std::vector<std::uint64_t>> contrib(10, std::vector<std::uint64_t>(7, 1));
  sim.aggregate(t, contrib,
                [](std::size_t, std::uint64_t a, std::uint64_t b) { return a + b; });
  // k=7 words, B=3 -> 3 chunks; rounds = 2*(9 + 3 - 1) = 22; messages = 2*9*3.
  EXPECT_EQ(sim.rounds(), 22u);
  EXPECT_EQ(sim.messages(), 54u);
}

TEST(DistributedQueries, MatchOracle) {
  Rng rng(81);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_connected(60, 120, rng);
    const auto parent = static_dfs(g);
    TreeIndex index;
    index.build(parent);
    AdjacencyOracle oracle;
    oracle.build(g, index);
    CongestSimulator sim(g, 8);
    const BfsTree tree = sim.build_bfs_tree(0);

    std::vector<stream::StreamQuery> queries;
    std::vector<std::optional<Edge>> expected;
    for (int qi = 0; qi < 30; ++qi) {
      const Vertex bottom = static_cast<Vertex>(rng.below(60));
      Vertex top = bottom;
      for (std::uint64_t h = rng.below(5); h > 0 && index.parent(top) != kNullVertex;
           --h) {
        top = index.parent(top);
      }
      const Vertex w = static_cast<Vertex>(rng.below(60));
      if (index.is_ancestor(w, bottom) || index.is_ancestor(top, w)) continue;
      const bool nearest_top = rng.coin(0.5);
      queries.push_back({stream::StreamQuery::SourceKind::kSubtree, w, kNullVertex,
                         top, bottom, nearest_top});
      expected.push_back(oracle.query_sources(
          index.subtree_span(w), PathSeg{top, bottom},
          nearest_top ? PathEnd::kTop : PathEnd::kBottom));
    }
    const auto got = answer_queries_distributed(sim, tree, g, index, queries);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), expected[i].has_value()) << "query " << i;
      if (got[i]) {
        EXPECT_EQ(index.post(got[i]->v), index.post(expected[i]->v)) << "query " << i;
        // Same (target post, source id) tie-breaking as the oracle.
        EXPECT_EQ(got[i]->u, expected[i]->u) << "query " << i;
      }
    }
  }
}

// MatchOracle's sources lie outside every ancestor line of its segments, so
// a DFS forest (back edges only) gives those queries no candidate. Here the
// sources sit in a subtree below the segment, where the back edges land,
// so several targets compete and the chosen end must be D's.
TEST(DistributedQueries, MatchOracleBelowTheSegment) {
  Rng rng(83);
  int answered = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_connected(60, 180, rng);
    const auto parent = static_dfs(g);
    TreeIndex index;
    index.build(parent);
    AdjacencyOracle oracle;
    oracle.build(g, index);
    CongestSimulator sim(g, 8);
    const BfsTree tree = sim.build_bfs_tree(0);

    std::vector<stream::StreamQuery> queries;
    std::vector<std::optional<Edge>> expected;
    for (int qi = 0; qi < 30; ++qi) {
      const Vertex w = static_cast<Vertex>(rng.below(60));
      if (index.parent(w) == kNullVertex) continue;
      const Vertex bottom = index.parent(w);
      Vertex top = bottom;
      for (std::uint64_t h = rng.below(8); h > 0 && index.parent(top) != kNullVertex;
           --h) {
        top = index.parent(top);
      }
      const bool nearest_top = qi % 2 == 0;
      queries.push_back({stream::StreamQuery::SourceKind::kSubtree, w, kNullVertex,
                         top, bottom, nearest_top});
      expected.push_back(oracle.query_sources(
          index.subtree_span(w), PathSeg{top, bottom},
          nearest_top ? PathEnd::kTop : PathEnd::kBottom));
    }
    const auto got = answer_queries_distributed(sim, tree, g, index, queries);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), expected[i].has_value()) << "query " << i;
      if (!got[i]) continue;
      ++answered;
      EXPECT_EQ(got[i]->v, expected[i]->v) << "query " << i;
      EXPECT_EQ(got[i]->u, expected[i]->u) << "query " << i;
    }
  }
  EXPECT_GT(answered, 100);
}

TEST(DistributedDfs, ForestStaysValidUnderChurn) {
  Rng rng(82);
  Graph g = gen::random_connected(40, 70, rng);
  DistributedDfs dd(std::move(g), 8);
  for (int step = 0; step < 30; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(dd.graph(), rng, 1, 1, 0.3, 0.3, u));
    dd.apply(u);
    const auto val = validate_dfs_forest(dd.graph(), dd.parent());
    ASSERT_TRUE(val.ok) << "step " << step << ": " << val.reason;
    if (u.kind == GraphUpdate::Kind::kInsertEdge) {
      // Edge endpoints share a component of size >= 2: communication is
      // unavoidable. (Deletions may leave the leader in a singleton.)
      EXPECT_GT(dd.last_cost().rounds, 0u) << "step " << step;
      EXPECT_GT(dd.last_cost().messages, 0u) << "step " << step;
    }
  }
  EXPECT_GT(dd.total_rounds(), 0u);
  EXPECT_GT(dd.total_messages(), 0u);
}

TEST(DistributedDfs, RoundsScaleWithDiameterTimesPolylog) {
  // Low-diameter grid vs. high-diameter path at the same vertex count:
  // rounds per update must track D, not n.
  const Vertex n = 400;
  Graph grid = gen::grid(20, 20);
  Graph path = gen::path(n);
  path.add_edge(0, n - 1);
  DistributedDfs dd_grid(std::move(grid));   // D ~ 38
  DistributedDfs dd_path(std::move(path));   // D ~ n/2 after the cycle closes
  dd_grid.apply(GraphUpdate::delete_edge(0, 1));
  dd_path.apply(GraphUpdate::delete_edge(n / 2 - 1, n / 2));
  EXPECT_GT(dd_grid.last_cost().rounds, 0u);
  EXPECT_GT(dd_path.last_cost().rounds, dd_grid.last_cost().rounds)
      << "larger diameter must cost more rounds";
  // Both valid.
  EXPECT_TRUE(validate_dfs_forest(dd_grid.graph(), dd_grid.parent()).ok);
  EXPECT_TRUE(validate_dfs_forest(dd_path.graph(), dd_path.parent()).ok);
}

TEST(DistributedDfs, AutoMessageSizeUsesDominantComponent) {
  // Isolated vertex 0 next to a 100-vertex path: B must come from the
  // dominant component (n=100, D=99 -> B=1), not from the lowest-id
  // singleton (which would give the degenerate B = n/2).
  Graph g(101);
  for (Vertex v = 1; v < 100; ++v) g.add_edge(v, v + 1);
  DistributedDfs dd(std::move(g));
  EXPECT_EQ(dd.message_words(), 1);
  Graph h(101);
  for (Vertex v = 2; v <= 100; ++v) h.add_edge(1, v);  // star on 1..100
  DistributedDfs dd2(std::move(h));
  EXPECT_EQ(dd2.message_words(), 50);
}

TEST(DistributedDfs, AutoMessageSizeIsNOverD) {
  Graph g = gen::path(100);
  DistributedDfs dd(std::move(g));
  // D ~ 99 (BFS height from vertex 0), so B = max(1, 100 / (2*99)) = 1.
  EXPECT_EQ(dd.message_words(), 1);
  Graph h = gen::star(100);
  DistributedDfs dd2(std::move(h));
  // D ~ 1..2 -> B ~ 25..50.
  EXPECT_GE(dd2.message_words(), 25);
}

}  // namespace
}  // namespace pardfs::dist
