#include "tree/tree_index.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "baseline/static_dfs.hpp"
#include "graph/generators.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

// Fixed tree:
//        0
//       . .
//      1   2
//     .|   |
//    3 4   5
//      |
//      6
class SmallTree : public ::testing::Test {
 protected:
  void SetUp() override {
    parent_ = {kNullVertex, 0, 0, 1, 1, 2, 4};
    index_.build(parent_);
  }
  std::vector<Vertex> parent_;
  TreeIndex index_;
};

TEST_F(SmallTree, BasicProperties) {
  EXPECT_EQ(index_.depth(0), 0);
  EXPECT_EQ(index_.depth(6), 3);
  EXPECT_EQ(index_.size(0), 7);
  EXPECT_EQ(index_.size(1), 4);
  EXPECT_EQ(index_.size(4), 2);
  EXPECT_EQ(index_.size(5), 1);
  EXPECT_EQ(index_.root_of(6), 0);
}

TEST_F(SmallTree, AncestorTests) {
  EXPECT_TRUE(index_.is_ancestor(0, 6));
  EXPECT_TRUE(index_.is_ancestor(1, 6));
  EXPECT_TRUE(index_.is_ancestor(4, 4));
  EXPECT_FALSE(index_.is_ancestor(2, 6));
  EXPECT_FALSE(index_.is_ancestor(6, 4));
}

TEST_F(SmallTree, Lca) {
  EXPECT_EQ(index_.lca(3, 6), 1);
  EXPECT_EQ(index_.lca(5, 6), 0);
  EXPECT_EQ(index_.lca(4, 6), 4);
  EXPECT_EQ(index_.lca(2, 2), 2);
}

TEST_F(SmallTree, ChildToward) {
  EXPECT_EQ(index_.child_toward(0, 6), 1);
  EXPECT_EQ(index_.child_toward(1, 6), 4);
  EXPECT_EQ(index_.child_toward(0, 5), 2);
}

TEST_F(SmallTree, PathOperations) {
  EXPECT_EQ(index_.path_length(6, 0), 3);
  EXPECT_EQ(index_.path_length(3, 6), 3);
  const std::vector<Vertex> up = {6, 4, 1, 0};
  EXPECT_EQ(index_.path_vertices(6, 0), up);
  const std::vector<Vertex> down = {0, 1, 4, 6};
  EXPECT_EQ(index_.path_vertices(0, 6), down);
  const std::vector<Vertex> bent = {3, 1, 4, 6};
  EXPECT_EQ(index_.tree_path(3, 6), bent);
  EXPECT_TRUE(index_.on_path(4, 6, 0));
  EXPECT_FALSE(index_.on_path(2, 6, 0));
}

TEST_F(SmallTree, BackEdgeTest) {
  EXPECT_TRUE(index_.is_back_edge(6, 0));
  EXPECT_TRUE(index_.is_back_edge(1, 3));
  EXPECT_FALSE(index_.is_back_edge(3, 6));
  EXPECT_FALSE(index_.is_back_edge(5, 6));
}

TEST_F(SmallTree, SubtreeEnumeration) {
  const auto sub = index_.subtree_vertices(1);
  EXPECT_EQ(sub.size(), 4u);
  EXPECT_EQ(sub.front(), 1);
  const auto span = index_.subtree_span(1);
  EXPECT_TRUE(std::equal(sub.begin(), sub.end(), span.begin(), span.end()));
}

TEST(TreeIndexForest, MultipleTreesAndDeadVertices) {
  // Two trees {0,1,2} and {3,4}; vertex 5 dead.
  std::vector<Vertex> parent = {kNullVertex, 0, 1, kNullVertex, 3, kNullVertex};
  std::vector<std::uint8_t> alive = {1, 1, 1, 1, 1, 0};
  TreeIndex index;
  index.build(parent, alive);
  EXPECT_EQ(index.roots().size(), 2u);
  EXPECT_EQ(index.root_of(2), 0);
  EXPECT_EQ(index.root_of(4), 3);
  EXPECT_EQ(index.lca(2, 4), kNullVertex) << "different trees have no LCA";
  EXPECT_FALSE(index.in_forest(5));
  EXPECT_EQ(index.size(5), 0);
  EXPECT_EQ(index.num_indexed(), 5);
}

// Parent walk to the LCA; kNullVertex across trees.
Vertex walk_lca(const TreeIndex& index, Vertex a, Vertex b) {
  if (index.root_of(a) != index.root_of(b)) return kNullVertex;
  while (index.depth(a) > index.depth(b)) a = index.parent(a);
  while (index.depth(b) > index.depth(a)) b = index.parent(b);
  while (a != b) {
    a = index.parent(a);
    b = index.parent(b);
  }
  return a;
}

// The static DFS forest of a sparse random graph with `dead` vertices removed:
// several trees, and ids outside the forest.
std::pair<std::vector<Vertex>, std::vector<std::uint8_t>> dead_id_forest(
    Vertex n, std::int64_t m, int dead, Rng& rng) {
  Graph g = gen::gnm(n, m, rng);
  for (int d = 0; d < dead; ++d) {
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (g.is_alive(v)) g.remove_vertex(v);
  }
  return {static_dfs(g), {g.alive().begin(), g.alive().end()}};
}

TEST(TreeIndexForest, PostOrderPropertiesRandom) {
  Rng rng(99);
  struct Shape {
    std::string name;
    std::vector<Vertex> parent;
    std::vector<std::uint8_t> alive;
  };
  std::vector<Shape> shapes;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_connected(200, 300, rng);
    shapes.push_back({"random_connected", static_dfs(g), {}});
  }
  // Sizes are not multiples of the LCA table's 32-entry blocks. Along pre
  // order the path's depths and parent pres rise strictly (every in-block
  // stack word fills up); the star's are flat below the root.
  shapes.push_back({"path", static_dfs(gen::path(300)), {}});
  shapes.push_back({"star", static_dfs(gen::star(300)), {}});
  shapes.push_back({"broom", static_dfs(gen::broom(300, 100)), {}});
  {
    auto [parent, alive] = dead_id_forest(500, 450, 40, rng);
    shapes.push_back({"dead_id_forest", std::move(parent), std::move(alive)});
  }
  {
    auto [parent, alive] = dead_id_forest(61, 50, 6, rng);
    shapes.push_back({"small_forest", std::move(parent), std::move(alive)});
  }
  for (const Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    TreeIndex index;
    index.build(s.parent, s.alive);
    const Vertex n = index.capacity();
    // Post-order: every vertex's post is larger than all descendants'.
    for (Vertex v = 0; v < n; ++v) {
      if (!index.in_forest(v)) continue;
      const Vertex p = s.parent[static_cast<std::size_t>(v)];
      if (p == kNullVertex) continue;
      EXPECT_LT(index.post(v), index.post(p));
      EXPECT_GT(index.pre(v), index.pre(p));
      EXPECT_EQ(index.depth(v), index.depth(p) + 1);
    }
    // Sizes are consistent.
    for (Vertex v = 0; v < n; ++v) {
      if (!index.in_forest(v)) continue;
      std::int32_t child_sum = 1;
      for (const Vertex c : index.children(v)) child_sum += index.size(c);
      EXPECT_EQ(index.size(v), child_sum);
    }
    // LCA agrees with a naive walk: every pair of a small forest; otherwise
    // random pairs plus pairs placed by pre position in one block, in
    // adjacent blocks and in far blocks.
    const std::int32_t k = index.num_indexed();
    auto check = [&](Vertex a, Vertex b) {
      ASSERT_EQ(index.lca(a, b), walk_lca(index, a, b)) << "a=" << a << " b=" << b;
    };
    auto check_pre = [&](std::int32_t i, std::int32_t j) {
      check(index.vertex_at_pre(i), index.vertex_at_pre(j));
    };
    if (k <= 64) {
      for (std::int32_t i = 0; i < k; ++i) {
        for (std::int32_t j = 0; j < k; ++j) check_pre(i, j);
      }
      continue;
    }
    for (int q = 0; q < 100; ++q) {
      const Vertex a = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      const Vertex b = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (index.in_forest(a) && index.in_forest(b)) check(a, b);
    }
    for (std::int32_t i = 0; i < k; i += 7) {
      for (const std::int32_t delta : {1, 13, 31, 32, 33, 63, 64, 65, 200, k - 1 - i}) {
        if (i + delta < k) check_pre(i, i + delta);
      }
    }
  }
}

}  // namespace
}  // namespace pardfs
