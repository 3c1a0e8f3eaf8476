#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/static_dfs.hpp"
#include "tree/validation.hpp"

namespace pardfs::gen {
namespace {

TEST(Generators, PathShape) {
  Graph g = path(10);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(5), 2);
}

TEST(Generators, CycleShape) {
  Graph g = cycle(10);
  EXPECT_EQ(g.num_edges(), 10);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Generators, StarShape) {
  Graph g = star(10);
  EXPECT_EQ(g.num_edges(), 9);
  EXPECT_EQ(g.degree(0), 9);
}

TEST(Generators, CliqueShape) {
  Graph g = clique(8);
  EXPECT_EQ(g.num_edges(), 28);
}

TEST(Generators, BroomShape) {
  Graph g = broom(20, 5);
  EXPECT_EQ(g.num_edges(), 19);
  EXPECT_EQ(g.degree(4), 16) << "broom head: 1 handle edge + 15 bristles";
}

TEST(Generators, BinaryTreeShape) {
  Graph g = binary_tree(15);
  EXPECT_EQ(g.num_edges(), 14);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Generators, GridShape) {
  Graph g = grid(4, 6);
  EXPECT_EQ(g.num_vertices(), 24);
  EXPECT_EQ(g.num_edges(), 4 * 5 + 3 * 6);
}

TEST(Generators, HairyPathShape) {
  Graph g = hairy_path(5, 3);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 19);
}

TEST(Generators, GnmExactEdgeCount) {
  Rng rng(3);
  Graph g = gnm(50, 300, rng);
  EXPECT_EQ(g.num_edges(), 300);
}

TEST(Generators, GnpRoughDensity) {
  Rng rng(4);
  Graph g = gnp(400, 0.05, rng);
  const double expected = 0.05 * 400 * 399 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.25);
}

TEST(Generators, BarabasiAlbertShape) {
  Rng rng(8);
  const Vertex n = 500;
  const Vertex m = 3;
  Graph g = barabasi_albert(n, m, rng);
  EXPECT_EQ(g.num_vertices(), n);
  // Clique seed on m+1 vertices, then m edges per arrival.
  const std::int64_t expected =
      static_cast<std::int64_t>(m + 1) * m / 2 +
      static_cast<std::int64_t>(n - m - 1) * m;
  EXPECT_EQ(g.num_edges(), expected);
  for (Vertex v = 0; v < n; ++v) EXPECT_GE(g.degree(v), m);
}

TEST(Generators, BarabasiAlbertIsConnected) {
  Rng rng(9);
  Graph g = barabasi_albert(300, 2, rng);
  const auto parent = static_dfs(g);
  int roots = 0;
  for (Vertex v = 0; v < 300; ++v) {
    if (parent[static_cast<std::size_t>(v)] == kNullVertex) ++roots;
  }
  EXPECT_EQ(roots, 1);
  EXPECT_TRUE(validate_dfs_forest(g, parent).ok);
}

TEST(Generators, BarabasiAlbertGrowsHubs) {
  // Preferential attachment concentrates degree: the maximum degree must be
  // far above the mean (for uniform attachment it stays near the mean).
  Rng rng(10);
  const Vertex n = 2000;
  Graph g = barabasi_albert(n, 2, rng);
  Vertex max_degree = 0;
  for (Vertex v = 0; v < n; ++v) max_degree = std::max(max_degree, g.degree(v));
  const double mean = 2.0 * static_cast<double>(g.num_edges()) / n;
  EXPECT_GT(max_degree, static_cast<Vertex>(6.0 * mean))
      << "power-law hubs expected (mean degree " << mean << ")";
}

TEST(Generators, BarabasiAlbertMinimumSizes) {
  Rng rng(11);
  Graph g = barabasi_albert(2, 1, rng);  // n == m + 1: just the seed clique
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Generators, RandomConnectedIsConnected) {
  Rng rng(5);
  Graph g = random_connected(200, 100, rng);
  const auto parent = static_dfs(g);
  int roots = 0;
  for (Vertex v = 0; v < 200; ++v) {
    if (parent[static_cast<std::size_t>(v)] == kNullVertex) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(Generators, RandomUpdatesAreFeasible) {
  Rng rng(6);
  Graph g = random_connected(50, 50, rng);
  for (int i = 0; i < 500; ++i) {
    GraphUpdate u;
    ASSERT_TRUE(random_update(g, rng, 1, 1, 0.3, 0.3, u)) << "step " << i;
    g.apply(u);
    ASSERT_GE(g.num_vertices(), 1);
  }
  // The mix must keep the graph usable; a DFS must still validate.
  const auto parent = static_dfs(g);
  EXPECT_TRUE(validate_dfs_forest(g, parent).ok);
}

TEST(Generators, RandomUpdateRespectsZeroWeights) {
  Rng rng(7);
  Graph g = path(10);
  for (int i = 0; i < 100; ++i) {
    GraphUpdate u;
    ASSERT_TRUE(random_update(g, rng, 0, 1, 0, 0, u));
    EXPECT_EQ(u.kind, GraphUpdate::Kind::kDeleteEdge);
    g.apply(u);
    if (g.num_edges() == 0) break;
  }
}

// FNV-1a over every field of the first 200 updates of one seeded stream,
// each applied before the next is drawn.
std::uint64_t stream_hash(std::uint64_t seed) {
  Rng graph_rng(11);
  Graph g = random_connected(64, 64, graph_rng);
  Rng rng(seed);
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::int64_t x) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
  };
  for (int i = 0; i < 200; ++i) {
    GraphUpdate u;
    if (!random_update(g, rng, 1, 1, 0.3, 0.3, u)) break;
    mix(static_cast<std::int64_t>(u.kind));
    mix(u.u);
    mix(u.v);
    mix(static_cast<std::int64_t>(u.neighbors.size()));
    for (const Vertex w : u.neighbors) mix(w);
    mix(g.apply(u));
  }
  return h;
}

// Fuzz replay lines and the seeded experiments depend on these draws: a
// change to random_update's RNG use must show up here.
TEST(Generators, RandomUpdateStreamIsPinned) {
  EXPECT_EQ(stream_hash(1), 0x3ea24b18e16cdceaull);
  EXPECT_EQ(stream_hash(2), 0xe7053a8a9b696237ull);
  EXPECT_EQ(stream_hash(3), 0x7e751a9da3d401e9ull);
}

}  // namespace
}  // namespace pardfs::gen
