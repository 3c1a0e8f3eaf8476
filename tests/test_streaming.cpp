// Semi-streaming DFS (Theorem 15): the one-pass query evaluator must match
// D exactly, the maintained forest must stay valid, and the pass count per
// update must stay polylogarithmic.
#include "stream/streaming_dfs.hpp"

#include <gtest/gtest.h>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs::stream {
namespace {

TEST(EdgeStreamTest, PassCounting) {
  EdgeStream s({{0, 1}, {1, 2}});
  EXPECT_EQ(s.passes(), 0u);
  int seen = 0;
  s.for_each_edge([&](const Edge&) { ++seen; });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(s.passes(), 1u);
  s.for_each_edge([](const Edge&) {});
  EXPECT_EQ(s.passes(), 2u);
}

TEST(EdgeStreamTest, UpdatesMutateContents) {
  EdgeStream s({{0, 1}, {1, 2}, {2, 3}});
  s.delete_edge(1, 2);
  EXPECT_EQ(s.size(), 2u);
  s.insert_edge(0, 3);
  EXPECT_EQ(s.size(), 3u);
  s.delete_vertex(0);
  EXPECT_EQ(s.size(), 1u);  // only (2,3) remains
}

TEST(OnePassEvaluator, MatchesOracleOnRandomGraphs) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_connected(80, 160, rng);
    const auto parent = static_dfs(g);
    TreeIndex index;
    index.build(parent);
    AdjacencyOracle oracle;
    oracle.build(g, index);
    EdgeStream stream(g.edges());

    // A batch of independent subtree queries (one per distinct subtree).
    std::vector<StreamQuery> queries;
    std::vector<std::optional<Edge>> expected;
    for (int qi = 0; qi < 40; ++qi) {
      const Vertex bottom = static_cast<Vertex>(rng.below(80));
      Vertex top = bottom;
      for (std::uint64_t h = rng.below(6); h > 0 && index.parent(top) != kNullVertex;
           --h) {
        top = index.parent(top);
      }
      const Vertex w = static_cast<Vertex>(rng.below(80));
      if (index.is_ancestor(w, bottom) || index.is_ancestor(top, w)) continue;
      const bool nearest_top = rng.coin(0.5);
      queries.push_back({StreamQuery::SourceKind::kSubtree, w, kNullVertex, top,
                         bottom, nearest_top});
      expected.push_back(oracle.query_sources(
          index.subtree_span(w), PathSeg{top, bottom},
          nearest_top ? PathEnd::kTop : PathEnd::kBottom));
    }
    const auto got = answer_queries_one_pass(stream, index, queries);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), expected[i].has_value()) << "query " << i;
      if (got[i]) {
        EXPECT_EQ(index.post(got[i]->v), index.post(expected[i]->v)) << "query " << i;
      }
    }
    EXPECT_EQ(stream.passes(), 1u) << "a whole batch costs exactly one pass";
  }
}

TEST(OnePassEvaluator, VertexAndSegmentSources) {
  // Path 0-1-2-3-4-5 with back edges (0,3) and (1,5).
  Graph g = gen::path(6);
  g.add_edge(0, 3);
  g.add_edge(1, 5);
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  EdgeStream stream(g.edges());
  const std::vector<StreamQuery> queries = {
      // Vertex 5 vs segment [0..2], nearest top -> edge (5,1).
      {StreamQuery::SourceKind::kVertex, 5, kNullVertex, 0, 2, true},
      // Segment [3..5] vs segment [0..2], nearest bottom: candidates
      // (3,0) via back edge, (3,2) via tree edge; nearest bottom(=2) is (3,2).
      {StreamQuery::SourceKind::kSegment, 3, 5, 0, 2, false},
      // No edges from vertex 4 to [0..1].
      {StreamQuery::SourceKind::kVertex, 4, kNullVertex, 0, 1, true},
  };
  const auto got = answer_queries_one_pass(stream, index, queries);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(got[0]->v, 1);
  ASSERT_TRUE(got[1].has_value());
  EXPECT_EQ(got[1]->v, 2);
  EXPECT_FALSE(got[2].has_value());
}

TEST(StreamingDfs, ForestStaysValidUnderChurn) {
  Rng rng(72);
  Graph g = gen::random_connected(50, 80, rng);
  EdgeStream stream(g.edges());
  StreamingDfs sd(stream, 50);
  for (int step = 0; step < 40; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(sd.graph(), rng, 1, 1, 0.3, 0.3, u));
    sd.apply(u);
    const auto val = validate_dfs_forest(sd.graph(), sd.parent());
    ASSERT_TRUE(val.ok) << "step " << step << ": " << val.reason;
    EXPECT_GT(sd.passes_last_update(), 0u);
  }
  EXPECT_GT(sd.passes_total(), 0u);
}

TEST(StreamingDfs, PassesArePolylog) {
  // A hard reroot on a sizable graph: passes must stay far below n.
  const Vertex n = 1024;
  Graph g = gen::path(n);
  g.add_edge(0, n - 1);
  EdgeStream stream(g.edges());
  StreamingDfs sd(stream, n);
  sd.apply(GraphUpdate::delete_edge(n / 2 - 1, n / 2));
  const auto val = validate_dfs_forest(sd.graph(), sd.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_LE(sd.passes_last_update(), 128u) << "O(log^2 n) passes expected";
  EXPECT_GT(sd.passes_last_update(), 1u);
}

}  // namespace
}  // namespace pardfs::stream
