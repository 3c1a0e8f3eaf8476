// The rebuild path (DESIGN.md §9): Theorem 4's parallel Euler-tour
// construction must reproduce the TreeIndex tables and vertex tour byte for
// byte at every worker count, and the steady-state rebuild must be
// allocation-free — a second build of the same shape performs zero new heap
// growth (capacity-stable), and DynamicDfs rebuilds into the indices its
// holders have released, never into one still held.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "pram/parallel.hpp"
#include "tree/euler_tour.hpp"
#include "tree/tree_index.hpp"
#include "tree/validation.hpp"
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
  }
  // LCA equality on sampled same-tree pairs exercises the block RMQ over
  // pre order.
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
  // Above pram::kSerialGrain directed tour edges, so the Euler-tour
  // construction really forks its team and splits the list ranking into
  // sublists.
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

// The vertex tour of `index`, re-walked from its roots and children: per
// tree, the root, then the entered vertex of each down edge and the parent
// of each up edge — the sequence EulerTourTables documents.
void walk_tour(const TreeIndex& index, std::vector<Vertex>& tour,
               std::vector<std::int32_t>& depth) {
  std::vector<std::pair<Vertex, std::size_t>> stack;
  for (const Vertex r : index.roots()) {
    tour.push_back(r);
    depth.push_back(0);
    stack.emplace_back(r, 0);
    while (!stack.empty()) {
      auto& [v, slot] = stack.back();
      const auto kids = index.children(v);
      if (slot < kids.size()) {
        const Vertex c = kids[slot++];
        tour.push_back(c);
        depth.push_back(index.depth(c));
        stack.emplace_back(c, 0);
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          tour.push_back(stack.back().first);
          depth.push_back(index.depth(stack.back().first));
        }
      }
    }
  }
}

TEST(Rebuild, ParallelBuildMatchesSerialAtEveryWorkerCount) {
  // Theorem 4's construction (list ranking and scans on the worker pool)
  // against the serial TreeIndex; the large shapes make it fork its team.
  const auto shapes = build_shapes();
  for (const Shape& s : shapes) {
    TreeIndex serial;
    serial.build(s.parent, s.alive);
    std::vector<Vertex> tour;
    std::vector<std::int32_t> tour_depth;
    walk_tour(serial, tour, tour_depth);
    for (const int threads : {1, 2, 4, 8}) {
      pram::set_num_threads(threads);
      const EulerTourTables t = euler_tour_tables(s.parent, s.alive);
      for (std::size_t v = 0; v < s.parent.size(); ++v) {
        const Vertex vv = static_cast<Vertex>(v);
        ASSERT_EQ(t.result.pre[v], serial.pre(vv)) << s.name << " v=" << v;
        ASSERT_EQ(t.result.post[v], serial.post(vv)) << s.name << " v=" << v;
        ASSERT_EQ(t.result.depth[v], serial.depth(vv)) << s.name << " v=" << v;
        ASSERT_EQ(t.result.size[v], serial.size(vv)) << s.name << " v=" << v;
        ASSERT_EQ(t.root_of[v], serial.root_of(vv)) << s.name << " v=" << v;
      }
      ASSERT_EQ(t.euler, tour) << s.name << " threads=" << threads;
      ASSERT_EQ(t.euler_depth, tour_depth) << s.name << " threads=" << threads;
    }
    pram::set_num_threads(0);
  }
}

TEST(Rebuild, AutoModeMatchesSerial) {
  // kAuto and kSerial name the one build; the observable index must match.
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
  TreeIndex idx;
  // Two builds to let every buffer (the LCA table's included) reach its
  // steady capacity, then the probe must not move.
  idx.build(parent);
  idx.build(parent);
  const std::size_t stable = idx.heap_capacity_bytes();
  EXPECT_GT(stable, 0u);
  for (int i = 0; i < 5; ++i) {
    idx.build(parent);
    EXPECT_EQ(idx.heap_capacity_bytes(), stable) << "rebuild " << i;
  }
}

TEST(Rebuild, IndexHeapHoldsEachFactOnce) {
  // The index stores each tree fact once (post is derived from pre, depth
  // and size) and keeps no id-sized rebuild scratch: about ten 4-byte words
  // per id on a star once rebuilds reach their steady capacity.
  constexpr Vertex n = 4096;
  const std::vector<Vertex> parent = static_dfs(gen::star(n));
  TreeIndex idx;
  idx.build(parent);
  idx.build(parent);
  EXPECT_LE(idx.heap_capacity_bytes(), std::size_t{11} * 4 * n);
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

// ---- index recycling (DESIGN.md §9, copy-free rebase and snapshot sharing) --

// The graph stays a forest of path pieces, so toggling edge (i, i + 1) is a
// tree-edge delete or a cross-tree insert: structural either way, one index
// rebuild per one-op batch.
class PathToggler {
 public:
  static constexpr Vertex kN = 64;
  // A work-capped batch at this scale finishes every component serially and
  // never queries D. Once the first epoch closes, D's base stops pinning the
  // constructor's index, and the only holders left are the engine's current
  // index and the test's copies.
  PathToggler() : dfs_(gen::path(kN)) {
    for (int i = 0; i < 8; ++i) step();
    EXPECT_EQ(dfs_.d_builds(), 1u);
  }
  void step() {
    const Vertex i = next_++ % (kN - 1);
    const GraphUpdate u = dfs_.graph().has_edge(i, i + 1)
                              ? GraphUpdate::delete_edge(i, i + 1)
                              : GraphUpdate::insert_edge(i, i + 1);
    const std::size_t before = dfs_.index_rebuilds();
    dfs_.apply_batch({&u, 1});
    ASSERT_EQ(dfs_.index_rebuilds(), before + 1);
  }
  DynamicDfs& dfs() { return dfs_; }

 private:
  DynamicDfs dfs_;
  Vertex next_ = 0;
};

TEST(Rebuild, ReleasedSnapshotIndexIsRebuiltInto) {
  PathToggler t;
  std::shared_ptr<const TreeIndex> held = t.dfs().tree_ptr();
  const TreeIndex* const released = held.get();
  t.step();
  EXPECT_NE(&t.dfs().tree(), released);
  held.reset();
  // The deleter handed the object back; the next rebuild takes it. The
  // blocker takes any TreeIndex-sized block the release freed instead, so
  // a fresh allocation cannot land at the old address and pass by chance.
  const auto blocker = std::make_unique<TreeIndex>();
  t.step();
  EXPECT_NE(blocker.get(), released);
  EXPECT_EQ(&t.dfs().tree(), released);
}

TEST(Rebuild, HeldIndexIsNeverRebuiltInto) {
  PathToggler t;
  const std::shared_ptr<const TreeIndex> held = t.dfs().tree_ptr();
  const std::vector<Vertex> frozen(held->parents().begin(), held->parents().end());
  for (int i = 0; i < 20; ++i) {
    t.step();
    ASSERT_NE(&t.dfs().tree(), held.get()) << "update " << i;
    ASSERT_EQ(std::vector<Vertex>(held->parents().begin(), held->parents().end()),
              frozen)
        << "update " << i;
  }
}

// A reader releases its copy on its own thread while the writer keeps
// rebuilding: the release must be ordered before any rebuild into the same
// buffers (TSan checks the ordering), and the forest must match an engine
// that never handed out an index.
TEST(Rebuild, IndexReleasedOnAnotherThreadIsRecycledSafely) {
  PathToggler t;
  PathToggler reference;
  std::shared_ptr<const TreeIndex> held = t.dfs().tree_ptr();
  const std::vector<Vertex> frozen(held->parents().begin(), held->parents().end());
  std::atomic<bool> go{false};
  std::atomic<bool> matched{false};
  std::thread reader([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const std::span<const Vertex> seen = held->parents();
    matched.store(std::vector<Vertex>(seen.begin(), seen.end()) == frozen,
                  std::memory_order_relaxed);
    held.reset();
  });
  for (int i = 0; i < 40; ++i) {
    if (i == 5) go.store(true, std::memory_order_release);
    t.step();
    reference.step();
  }
  reader.join();
  EXPECT_TRUE(matched.load());
  for (int i = 0; i < 10; ++i) {
    t.step();
    reference.step();
  }
  EXPECT_TRUE(validate_dfs_forest(t.dfs().graph(), t.dfs().parent()));
  EXPECT_EQ(std::vector<Vertex>(t.dfs().parent().begin(), t.dfs().parent().end()),
            std::vector<Vertex>(reference.dfs().parent().begin(),
                                reference.dfs().parent().end()));
}

}  // namespace
}  // namespace pardfs
