// Unit tests for DynamicDfs: each update kind in isolation, forest
// maintenance of disconnected graphs, and the super-root conventions.
#include "core/dynamic_dfs.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

void expect_valid(const DynamicDfs& dfs, const char* what) {
  const auto validation = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(validation.ok) << what << ": " << validation.reason;
}

TEST(DynamicDfs, InitialForestIsValid) {
  Rng rng(1);
  DynamicDfs dfs(gen::random_connected(50, 80, rng));
  expect_valid(dfs, "initial");
}

TEST(DynamicDfs, InsertBackEdgeKeepsTree) {
  DynamicDfs dfs(gen::path(6));
  const auto before =
      std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end());
  dfs.insert_edge(0, 4);  // ancestor pair on the path tree
  EXPECT_EQ(before, std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end()));
  expect_valid(dfs, "back edge insert");
}

TEST(DynamicDfs, InsertCrossEdgeReroots) {
  // Star center 0: inserting (1,2) connects two sibling leaves.
  DynamicDfs dfs(gen::star(5));
  dfs.insert_edge(1, 2);
  expect_valid(dfs, "cross edge insert");
  EXPECT_TRUE(dfs.graph().has_edge(1, 2));
}

TEST(DynamicDfs, InsertEdgeMergesComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  DynamicDfs dfs(std::move(g));
  EXPECT_NE(dfs.root_of(0), dfs.root_of(3));
  dfs.insert_edge(2, 3);
  expect_valid(dfs, "component merge");
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(3));
}

TEST(DynamicDfs, DeleteNonTreeEdgeKeepsTree) {
  Graph g = gen::cycle(8);
  DynamicDfs dfs(std::move(g));
  // One cycle edge is a back edge of the DFS tree; find it and delete it.
  Vertex u = kNullVertex, v = kNullVertex;
  for (const Edge& e : dfs.graph().edges()) {
    if (dfs.parent_of(e.u) != e.v && dfs.parent_of(e.v) != e.u) {
      u = e.u;
      v = e.v;
      break;
    }
  }
  ASSERT_NE(u, kNullVertex);
  const auto before =
      std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end());
  dfs.delete_edge(u, v);
  EXPECT_EQ(before, std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end()));
  expect_valid(dfs, "non-tree delete");
}

TEST(DynamicDfs, DeleteTreeEdgeReattachesViaBackEdge) {
  // Path 0-1-2-3-4 plus back edge (0,4). Deleting (1,2) must reattach the
  // tail {2,3,4} through (0,4).
  Graph g = gen::path(5);
  g.add_edge(0, 4);
  DynamicDfs dfs(std::move(g));
  dfs.delete_edge(1, 2);
  expect_valid(dfs, "tree edge delete w/ back edge");
  EXPECT_EQ(dfs.root_of(4), dfs.root_of(0));
}

TEST(DynamicDfs, DeleteBridgeSplitsComponent) {
  DynamicDfs dfs(gen::path(6));
  dfs.delete_edge(2, 3);
  expect_valid(dfs, "bridge delete");
  EXPECT_NE(dfs.root_of(0), dfs.root_of(5));
  EXPECT_EQ(dfs.root_of(5), dfs.root_of(3));
}

TEST(DynamicDfs, DeleteVertexMiddleOfPath) {
  DynamicDfs dfs(gen::path(7));
  dfs.delete_vertex(3);
  expect_valid(dfs, "vertex delete splitting path");
  EXPECT_FALSE(dfs.graph().is_alive(3));
  EXPECT_NE(dfs.root_of(0), dfs.root_of(6));
}

TEST(DynamicDfs, DeleteVertexWithReattachment) {
  // Cycle: deleting any vertex keeps the rest connected.
  DynamicDfs dfs(gen::cycle(10));
  dfs.delete_vertex(4);
  expect_valid(dfs, "vertex delete on cycle");
  EXPECT_EQ(dfs.root_of(3), dfs.root_of(5));
  EXPECT_EQ(dfs.graph().num_vertices(), 9);
}

TEST(DynamicDfs, DeleteRootVertex) {
  DynamicDfs dfs(gen::star(6));
  const Vertex root = dfs.root_of(1);
  dfs.delete_vertex(root);
  expect_valid(dfs, "root delete");
  EXPECT_EQ(dfs.graph().num_vertices(), 5);
}

TEST(DynamicDfs, InsertIsolatedVertex) {
  DynamicDfs dfs(gen::path(4));
  const Vertex v = dfs.insert_vertex({});
  expect_valid(dfs, "isolated vertex insert");
  EXPECT_EQ(dfs.parent_of(v), kNullVertex);
  EXPECT_EQ(dfs.root_of(v), v);
}

TEST(DynamicDfs, InsertVertexWithOneNeighbor) {
  DynamicDfs dfs(gen::path(4));
  const Vertex nbrs[] = {2};
  const Vertex v = dfs.insert_vertex(nbrs);
  expect_valid(dfs, "leaf vertex insert");
  EXPECT_EQ(dfs.parent_of(v), 2);
}

TEST(DynamicDfs, InsertVertexConnectingManyBranches) {
  // Star center 0 with leaves 1..5; new vertex adjacent to three leaves.
  DynamicDfs dfs(gen::star(6));
  const Vertex nbrs[] = {1, 3, 5};
  const Vertex v = dfs.insert_vertex(nbrs);
  expect_valid(dfs, "multi-neighbor vertex insert");
  for (const Vertex u : nbrs) EXPECT_TRUE(dfs.graph().has_edge(v, u));
}

TEST(DynamicDfs, InsertVertexMergingComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  DynamicDfs dfs(std::move(g));
  const Vertex nbrs[] = {1, 2};
  const Vertex v = dfs.insert_vertex(nbrs);
  expect_valid(dfs, "component-merging vertex insert");
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(3));
  EXPECT_EQ(dfs.root_of(v), dfs.root_of(0));
}

TEST(DynamicDfs, EmptyGraphGrowsFromNothing) {
  DynamicDfs dfs(Graph{});
  const Vertex a = dfs.insert_vertex({});
  const Vertex nbrs[] = {a};
  const Vertex b = dfs.insert_vertex(nbrs);
  expect_valid(dfs, "grown from empty");
  EXPECT_TRUE(dfs.graph().has_edge(a, b));
}

TEST(DynamicDfs, MoveConstructThenUpdateThenValidate) {
  // The embedded oracle holds a pointer to the base-tree index; the move
  // constructor must re-point it at the moved-into instance's base index, or
  // the first oracle-driven update would read freed memory.
  Rng rng(60);
  DynamicDfs source(gen::random_connected(96, 240, rng));
  // A structural update first, so the current tree diverges from the base
  // and post-move queries exercise the Theorem 9 decomposition too.
  Vertex child = kNullVertex;
  for (Vertex v = 0; v < source.graph().capacity(); ++v) {
    if (source.parent_of(v) != kNullVertex) {
      child = v;
      break;
    }
  }
  ASSERT_NE(child, kNullVertex);
  source.delete_edge(source.parent_of(child), child);
  const auto state = std::vector<Vertex>(source.parent().begin(),
                                         source.parent().end());
  DynamicDfs moved(std::move(source));
  EXPECT_EQ(state, std::vector<Vertex>(moved.parent().begin(),
                                       moved.parent().end()));
  for (int step = 0; step < 30; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(moved.graph(), rng, 1, 1, 0.2, 0.2, u));
    moved.apply(u);
    expect_valid(moved, "update after move construction");
  }
}

TEST(DynamicDfs, MoveAssignThenUpdateThenValidate) {
  Rng rng(61);
  DynamicDfs source(gen::random_connected(80, 200, rng));
  source.delete_vertex(5);  // diverge current tree from base pre-move
  DynamicDfs target(gen::path(4));
  target = std::move(source);
  EXPECT_EQ(target.graph().num_vertices(), 79);
  // Mixed updates across at least one epoch boundary: the rebase path
  // (oracle rebuild over the moved base index) must work too.
  for (std::size_t step = 0; step <= target.epoch_period() + 4; ++step) {
    GraphUpdate u;
    ASSERT_TRUE(gen::random_update(target.graph(), rng, 1, 1, 0.2, 0.2, u));
    target.apply(u);
    expect_valid(target, "update after move assignment");
  }
}

TEST(DynamicDfs, StatsReflectWork) {
  const Vertex n = 512;
  Graph g = gen::path(n);
  g.add_edge(0, n - 1);
  DynamicDfs dfs(std::move(g));
  dfs.delete_edge(n / 2 - 1, n / 2);  // forces a reroot through the back edge
  EXPECT_GT(dfs.last_stats().global_rounds, 0u);
  EXPECT_GT(dfs.last_stats().vertices_traversed, 0u);
  EXPECT_LE(dfs.last_stats().global_rounds, 64u) << "polylog rounds";
  expect_valid(dfs, "stats update");
}

}  // namespace
}  // namespace pardfs
