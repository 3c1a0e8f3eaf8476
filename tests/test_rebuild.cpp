// The rebuild path (DESIGN.md §9): the parallel Theorem-4 TreeIndex build
// must be byte-identical to the serial fallback at every worker count, and
// the steady-state rebuild must be allocation-free — a second build of the
// same shape performs zero new heap growth (capacity-stable).
#include <gtest/gtest.h>

#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "pram/parallel.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

// Full observable-state comparison of two indices built over the same
// parent/alive arrays (pre/post/depth/size/orderings/children/roots/LCA).
void expect_identical(const TreeIndex& a, const TreeIndex& b, Vertex n,
                      const char* label) {
  ASSERT_EQ(a.capacity(), b.capacity()) << label;
  ASSERT_EQ(a.num_indexed(), b.num_indexed()) << label;
  ASSERT_EQ(std::vector<Vertex>(a.roots().begin(), a.roots().end()),
            std::vector<Vertex>(b.roots().begin(), b.roots().end()))
      << label;
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(a.in_forest(v), b.in_forest(v)) << label << " v=" << v;
    ASSERT_EQ(a.parent(v), b.parent(v)) << label << " v=" << v;
    ASSERT_EQ(a.depth(v), b.depth(v)) << label << " v=" << v;
    ASSERT_EQ(a.size(v), b.size(v)) << label << " v=" << v;
    ASSERT_EQ(a.pre(v), b.pre(v)) << label << " v=" << v;
    ASSERT_EQ(a.post(v), b.post(v)) << label << " v=" << v;
    if (!a.in_forest(v)) continue;
    ASSERT_EQ(a.root_of(v), b.root_of(v)) << label << " v=" << v;
    const auto ca = a.children(v);
    const auto cb = b.children(v);
    ASSERT_EQ(std::vector<Vertex>(ca.begin(), ca.end()),
              std::vector<Vertex>(cb.begin(), cb.end()))
        << label << " v=" << v;
  }
  for (std::int32_t i = 0; i < a.num_indexed(); ++i) {
    ASSERT_EQ(a.vertex_at_pre(i), b.vertex_at_pre(i)) << label << " pre=" << i;
    ASSERT_EQ(a.vertex_at_post(i), b.vertex_at_post(i)) << label << " post=" << i;
  }
  // LCA equality on sampled same-tree pairs exercises the Fischer–Heun
  // table, whose state the parallel block fill must reproduce exactly.
  Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (!a.in_forest(u) || !a.in_forest(v)) continue;
    ASSERT_EQ(a.lca(u, v), b.lca(u, v)) << label << " u=" << u << " v=" << v;
  }
}

struct Shape {
  const char* name;
  std::vector<Vertex> parent;
  std::vector<std::uint8_t> alive;
};

std::vector<Shape> build_shapes() {
  std::vector<Shape> shapes;
  Rng rng(4242);
  {
    Graph g = gen::star(300);
    shapes.push_back({"star", static_dfs(g), {}});
  }
  {
    Graph g = gen::path(500);
    shapes.push_back({"chain", static_dfs(g), {}});
  }
  for (int trial = 0; trial < 3; ++trial) {
    // Random forest: a sparse random graph (possibly disconnected).
    const Vertex n = static_cast<Vertex>(100 + rng.below(400));
    Graph g(n);
    const std::int64_t m = static_cast<std::int64_t>(rng.below(
        static_cast<std::uint64_t>(2 * n)));
    for (std::int64_t e = 0; e < m; ++e) {
      const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (u != v && !g.has_edge(u, v)) g.add_edge(u, v);
    }
    shapes.push_back({"random_forest", static_dfs(g), {}});
  }
  {
    // Dead vertices: delete a batch, then re-run the static DFS — deleted
    // slots keep parent kNullVertex and alive[v] == 0.
    Graph g = gen::random_connected(400, 900, rng);
    for (int d = 0; d < 60; ++d) {
      const Vertex v = static_cast<Vertex>(rng.below(400));
      if (g.is_alive(v) && g.num_vertices() > 2) g.remove_vertex(v);
    }
    Shape s{"dead_vertices", static_dfs(g), {}};
    s.alive.assign(g.alive().begin(), g.alive().end());
    shapes.push_back(std::move(s));
  }
  // Above pram::kSerialGrain directed tour edges, so the parallel build
  // really forks its team and splits the list ranking into sublists.
  {
    Graph g = gen::star(1 << 13);
    shapes.push_back({"wide_star", static_dfs(g), {}});
  }
  {
    Graph g = gen::path(1 << 13);
    shapes.push_back({"deep_chain", static_dfs(g), {}});
  }
  {
    // Random forest with dead vertices: a sparse random graph (several
    // components plus isolated roots) with ~1/8 of its ids deleted.
    const Vertex n = 1 << 14;
    Graph g(n);
    for (std::int64_t e = 0; e < n; ++e) {
      const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (u != v && !g.has_edge(u, v)) g.add_edge(u, v);
    }
    for (int d = 0; d < n / 8; ++d) {
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (g.is_alive(v)) g.remove_vertex(v);
    }
    Shape s{"large_forest_dead_vertices", static_dfs(g), {}};
    s.alive.assign(g.alive().begin(), g.alive().end());
    shapes.push_back(std::move(s));
  }
  return shapes;
}

TEST(Rebuild, ParallelBuildMatchesSerialAtEveryWorkerCount) {
  const auto shapes = build_shapes();
  for (const Shape& s : shapes) {
    TreeIndex serial;
    serial.build(s.parent, s.alive, TreeBuildMode::kSerial);
    for (const int threads : {1, 2, 4, 8}) {
      pram::set_num_threads(threads);
      TreeIndex par;
      par.build(s.parent, s.alive, TreeBuildMode::kParallel);
      expect_identical(serial, par, static_cast<Vertex>(s.parent.size()), s.name);
    }
    pram::set_num_threads(0);
  }
}

TEST(Rebuild, AutoModeMatchesSerial) {
  // kAuto is the serial build today; whatever it dispatches to, the
  // observable index must be the serial one.
  const auto shapes = build_shapes();
  for (const Shape& s : shapes) {
    TreeIndex serial;
    serial.build(s.parent, s.alive, TreeBuildMode::kSerial);
    TreeIndex aut;
    aut.build(s.parent, s.alive);
    expect_identical(serial, aut, static_cast<Vertex>(s.parent.size()), s.name);
  }
}

TEST(Rebuild, TreeIndexRebuildIsCapacityStable) {
  Rng rng(7);
  Graph g = gen::random_connected(2000, 5000, rng);
  const std::vector<Vertex> parent = static_dfs(g);
  for (const TreeBuildMode mode :
       {TreeBuildMode::kSerial, TreeBuildMode::kParallel}) {
    TreeIndex idx;
    // Two builds to let every buffer (including the LCA and tour swap
    // pairs) reach its steady capacity, then the probe must not move.
    idx.build(parent, {}, mode);
    idx.build(parent, {}, mode);
    const std::size_t stable = idx.heap_capacity_bytes();
    EXPECT_GT(stable, 0u);
    for (int i = 0; i < 5; ++i) {
      idx.build(parent, {}, mode);
      EXPECT_EQ(idx.heap_capacity_bytes(), stable)
          << "mode " << static_cast<int>(mode) << " rebuild " << i;
    }
  }
}

TEST(Rebuild, OracleRebuildIsCapacityStable) {
  Rng rng(8);
  Graph g = gen::random_connected(2000, 5000, rng);
  const std::vector<Vertex> parent = static_dfs(g);
  TreeIndex idx;
  idx.build(parent);
  AdjacencyOracle oracle;
  oracle.build(g, idx);
  oracle.build(g, idx);
  const std::size_t stable = oracle.heap_capacity_bytes();
  EXPECT_GT(stable, 0u);
  for (int i = 0; i < 5; ++i) {
    oracle.build(g, idx);
    EXPECT_EQ(oracle.heap_capacity_bytes(), stable) << "rebuild " << i;
    // The aligned-allocator switch must not disturb capacity accounting,
    // and every rebuild must land the CSR on simd::kAlign boundaries
    // (DESIGN.md §10 layout invariant).
    EXPECT_TRUE(oracle.csr_aligned()) << "rebuild " << i;
  }
}

TEST(Rebuild, OracleRebuildAbsorbsEpochPatches) {
  // An epoch's worth of patches (extras + deletions) must not leak capacity
  // growth across rebuilds: the post-rebuild capacity returns to a fixed
  // point once the extra lists' inner capacities have stabilized.
  Rng rng(9);
  Graph g = gen::random_connected(500, 1500, rng);
  const std::vector<Vertex> parent = static_dfs(g);
  TreeIndex idx;
  idx.build(parent);
  AdjacencyOracle oracle;
  auto churn = [&] {
    // Patch a few edges, then rebuild (patch lists reset, buffers stay).
    int patched = 0;
    for (Vertex v = 0; v < 500 && patched < 10; ++v) {
      const auto nbrs = g.neighbors(v);
      if (nbrs.empty()) continue;
      oracle.note_edge_deleted(v, nbrs.front());
      oracle.note_edge_inserted(v, nbrs.front());
      ++patched;
    }
    oracle.build(g, idx);
  };
  oracle.build(g, idx);
  churn();
  churn();
  const std::size_t stable = oracle.heap_capacity_bytes();
  for (int i = 0; i < 4; ++i) {
    churn();
    EXPECT_EQ(oracle.heap_capacity_bytes(), stable) << "churn " << i;
  }
}

}  // namespace
}  // namespace pardfs
