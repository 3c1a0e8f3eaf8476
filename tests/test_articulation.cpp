#include "core/articulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

// Brute force: v is an articulation point iff removing it increases the
// number of connected components among the remaining vertices.
int count_components(const Graph& g, Vertex skip) {
  std::vector<std::int8_t> seen(static_cast<std::size_t>(g.capacity()), 0);
  int comps = 0;
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < g.capacity(); ++s) {
    if (!g.is_alive(s) || s == skip || seen[static_cast<std::size_t>(s)]) continue;
    ++comps;
    stack.push_back(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Vertex w : g.neighbors(v)) {
        if (w == skip || seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  return comps;
}

void check_against_brute_force(const Graph& g, std::span<const Vertex> parent) {
  const CutStructure cuts = find_cuts(g, parent);
  const int base = count_components(g, kNullVertex);
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (!g.is_alive(v)) continue;
    // v is an articulation point iff removing it increases the component
    // count among the other vertices (isolated vertices never qualify).
    const bool brute = g.degree(v) > 0 && count_components(g, v) > base;
    EXPECT_EQ(static_cast<bool>(cuts.is_articulation[static_cast<std::size_t>(v)]),
              brute)
        << "vertex " << v;
  }
  // Bridges, both directions: every claimed bridge must split its component
  // when removed (soundness), and every edge whose removal splits must be
  // claimed (completeness) — checked over ALL edges via the remove-one
  // oracle.
  const auto claimed = [&](Vertex u, Vertex v) {
    for (const Edge& b : cuts.bridges) {
      if ((b.u == u && b.v == v) || (b.u == v && b.v == u)) return true;
    }
    return false;
  };
  for (const Edge& e : g.edges()) {
    Graph h = g;
    h.remove_edge(e.u, e.v);
    const bool splits = count_components(h, kNullVertex) > base;
    EXPECT_EQ(claimed(e.u, e.v), splits)
        << "edge (" << e.u << "," << e.v << "): bridge set "
        << (splits ? "missed a real bridge" : "claimed a non-bridge");
  }
  // Claimed bridges are (parent, child) tree edges.
  for (const Edge& b : cuts.bridges) {
    EXPECT_EQ(parent[static_cast<std::size_t>(b.v)], b.u)
        << "bridge (" << b.u << "," << b.v << ") is not a tree edge";
  }
}

void check_against_brute_force(const Graph& g) {
  check_against_brute_force(g, static_dfs(g));
}

// The textbook low-link over depths, with an explicit ancestor test per
// neighbour and a pass over every id: the form find_cuts had before its
// low-link moved to pre-order slots. Both must emit the same bytes.
CutStructure depth_low_link(const Graph& g, const TreeIndex& index) {
  CutStructure out;
  out.is_articulation.assign(static_cast<std::size_t>(g.capacity()), 0);
  std::vector<std::int32_t> low(static_cast<std::size_t>(g.capacity()), 0);
  for (std::int32_t i = index.num_indexed() - 1; i >= 0; --i) {
    const Vertex v = index.vertex_at_pre(i);
    std::int32_t lv = index.depth(v);
    for (const Vertex w : g.neighbors(v)) {
      if (index.parent(w) == v || index.parent(v) == w) continue;
      if (index.is_ancestor(w, v)) lv = std::min(lv, index.depth(w));
    }
    for (const Vertex c : index.children(v)) {
      lv = std::min(lv, low[static_cast<std::size_t>(c)]);
    }
    low[static_cast<std::size_t>(v)] = lv;
  }
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (!g.is_alive(v)) continue;
    const Vertex p = index.parent(v);
    if (p == kNullVertex) {
      if (index.children(v).size() >= 2) {
        out.is_articulation[static_cast<std::size_t>(v)] = 1;
      }
      continue;
    }
    if (low[static_cast<std::size_t>(v)] >= index.depth(v)) out.bridges.push_back({p, v});
    if (index.parent(p) != kNullVertex &&
        low[static_cast<std::size_t>(v)] >= index.depth(p)) {
      out.is_articulation[static_cast<std::size_t>(p)] = 1;
    }
  }
  return out;
}

TEST(Articulation, PathEveryInnerVertexIsCut) {
  Graph g = gen::path(6);
  const auto parent = static_dfs(g);
  const CutStructure cuts = find_cuts(g, parent);
  EXPECT_FALSE(cuts.is_articulation[0]);
  EXPECT_FALSE(cuts.is_articulation[5]);
  for (Vertex v = 1; v < 5; ++v) EXPECT_TRUE(cuts.is_articulation[static_cast<std::size_t>(v)]);
  EXPECT_EQ(cuts.bridges.size(), 5u);
}

TEST(Articulation, CycleHasNoCuts) {
  Graph g = gen::cycle(8);
  const auto parent = static_dfs(g);
  const CutStructure cuts = find_cuts(g, parent);
  for (Vertex v = 0; v < 8; ++v) EXPECT_FALSE(cuts.is_articulation[static_cast<std::size_t>(v)]);
  EXPECT_TRUE(cuts.bridges.empty());
}

TEST(Articulation, StarCenterIsCut) {
  Graph g = gen::star(6);
  const auto parent = static_dfs(g);
  const CutStructure cuts = find_cuts(g, parent);
  EXPECT_TRUE(cuts.is_articulation[0]);
  for (Vertex v = 1; v < 6; ++v) EXPECT_FALSE(cuts.is_articulation[static_cast<std::size_t>(v)]);
  EXPECT_EQ(cuts.bridges.size(), 5u);
}

TEST(Articulation, MatchesBruteForceOnRandomGraphs) {
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = static_cast<Vertex>(10 + rng.below(60));
    Graph g = gen::gnp(n, 2.5 / n, rng);
    check_against_brute_force(g);
  }
}

TEST(Articulation, MatchesBruteForceOnDenseGraphs) {
  Rng rng(405);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::gnm(30, 120, rng);
    check_against_brute_force(g);
  }
}

TEST(Articulation, HandlesDeadVertices) {
  Graph g = gen::path(5);
  g.remove_vertex(2);
  check_against_brute_force(g);
}

TEST(Articulation, EveryTreeEdgeIsABridge) {
  // In a tree, all n-1 edges are bridges and every internal vertex is an
  // articulation point — the completeness direction at its extreme.
  Graph g = gen::binary_tree(31);
  const auto parent = static_dfs(g);
  const CutStructure cuts = find_cuts(g, parent);
  EXPECT_EQ(cuts.bridges.size(), 30u);
  check_against_brute_force(g);
}

TEST(Articulation, MatchesBruteForceOnDisconnectedGraphs) {
  // Several components, one with a cut vertex, one 2-edge-connected, one a
  // bare edge; the low-link pass must keep them independent.
  Rng rng(406);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::gnp(50, 1.2 / 50, rng);  // below the connectivity threshold
    check_against_brute_force(g);
  }
}

TEST(Articulation, IndexFormMatchesParentForm) {
  // The service passes its already-built TreeIndex; the parent-array form
  // builds one itself. Both must report the same cuts, dead vertices too.
  Rng rng(407);
  for (int trial = 0; trial < 12; ++trial) {
    const Vertex n = static_cast<Vertex>(20 + rng.below(300));
    Graph g = gen::gnp(n, 2.0 / n, rng);
    for (int d = 0; d < n / 8; ++d) {
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (g.is_alive(v)) g.remove_vertex(v);
    }
    const auto parent = static_dfs(g);
    TreeIndex index;
    index.build(parent, g.alive());
    const CutStructure by_parent = find_cuts(g, parent);
    const CutStructure by_index = find_cuts(g, index);
    EXPECT_EQ(by_parent.is_articulation, by_index.is_articulation) << "trial " << trial;
    EXPECT_EQ(by_parent.bridges, by_index.bridges) << "trial " << trial;
  }
}

// Every generator family, with an eighth of the ids deleted, plus forests a
// DynamicDfs left after churn (not the static DFS, dead ids included): the
// pre-order sweep answers as the brute-force oracles do and emits the same
// CutStructure bytes as the depth form.
TEST(Articulation, PreOrderSweepMatchesBruteForceAndDepthFormOnEveryFamily) {
  Rng rng(408);
  std::vector<Graph> graphs = {
      gen::path(40),          gen::cycle(40),
      gen::star(40),          gen::clique(12),
      gen::broom(40, 10),     gen::binary_tree(40),
      gen::grid(6, 7),        gen::hairy_path(8, 4),
      gen::random_connected(60, 30, rng), gen::barabasi_albert(60, 2, rng),
      gen::gnp(60, 2.0 / 60, rng),        gen::gnm(40, 70, rng)};
  const auto check = [](const Graph& g, std::span<const Vertex> parent) {
    check_against_brute_force(g, parent);
    TreeIndex index;
    index.build(parent, g.alive());
    const CutStructure want = depth_low_link(g, index);
    const CutStructure got = find_cuts(g, index);
    EXPECT_EQ(got.is_articulation, want.is_articulation);
    EXPECT_EQ(got.bridges, want.bridges);
  };
  for (std::size_t f = 0; f < graphs.size(); ++f) {
    SCOPED_TRACE("family " + std::to_string(f));
    Graph& g = graphs[f];
    check(g, static_dfs(g));
    for (Vertex d = 0; d < g.capacity() / 8; ++d) {
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
      if (g.is_alive(v)) g.remove_vertex(v);
    }
    check(g, static_dfs(g));
    DynamicDfs dfs(g);
    for (int i = 0; i < 30; ++i) {
      gen::Update u;
      if (!gen::random_update(dfs.graph(), rng, 1.0, 1.0, 0.3, 0.3, u)) break;
      switch (u.kind) {
        case gen::UpdateKind::kInsertEdge: dfs.insert_edge(u.u, u.v); break;
        case gen::UpdateKind::kDeleteEdge: dfs.delete_edge(u.u, u.v); break;
        case gen::UpdateKind::kInsertVertex: dfs.insert_vertex(u.neighbors); break;
        case gen::UpdateKind::kDeleteVertex: dfs.delete_vertex(u.u); break;
      }
    }
    check(dfs.graph(), dfs.parent());
  }
}

}  // namespace
}  // namespace pardfs
