// Data structure D vs. brute force: every query kind, against random graphs
// and paths, with and without Theorem 9 patches.
#include "core/adjacency_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "baseline/static_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

// Brute force: all edges from `sources` to vertices on the base chain
// [seg.top .. seg.bottom]; pick the endpoint nearest the requested end.
std::optional<Edge> brute_query(const Graph& g, const TreeIndex& index,
                                std::span<const Vertex> sources, PathSeg seg,
                                PathEnd end) {
  auto on_seg = [&](Vertex x) {
    return index.in_forest(x) && index.is_ancestor(seg.top, x) &&
           index.is_ancestor(x, seg.bottom);
  };
  std::optional<Edge> best;
  for (const Vertex u : sources) {
    if (!g.is_alive(u)) continue;
    for (const Vertex z : g.neighbors(u)) {
      if (!on_seg(z)) continue;
      if (!best) {
        best = Edge{u, z};
        continue;
      }
      const std::int32_t zp = index.post(z);
      const std::int32_t bp = index.post(best->v);
      const bool wins = end == PathEnd::kTop
                            ? (zp > bp || (zp == bp && u < best->u))
                            : (zp < bp || (zp == bp && u < best->u));
      if (wins) best = Edge{u, z};
    }
  }
  return best;
}

struct OracleFixture {
  Graph g;
  TreeIndex index;
  AdjacencyOracle oracle;

  explicit OracleFixture(Graph graph) : g(std::move(graph)) {
    const auto parent = static_dfs(g);
    index.build(parent);
    oracle.build(g, index);
  }
};

// Random ancestor-descendant segment of the tree.
PathSeg random_segment(const TreeIndex& index, Vertex n, Rng& rng) {
  const Vertex bottom = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
  Vertex top = bottom;
  const std::uint64_t hops = rng.below(8);
  for (std::uint64_t h = 0; h < hops; ++h) {
    if (index.parent(top) == kNullVertex) break;
    top = index.parent(top);
  }
  return {top, bottom};
}

TEST(Oracle, SingleVertexQueriesMatchBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    OracleFixture s(gen::random_connected(120, 240, rng));
    for (int q = 0; q < 200; ++q) {
      const PathSeg seg = random_segment(s.index, 120, rng);
      const Vertex u = static_cast<Vertex>(rng.below(120));
      // Skip sources on the segment (disjointness precondition).
      if (s.index.is_ancestor(seg.top, u) && s.index.is_ancestor(u, seg.bottom)) {
        continue;
      }
      for (const PathEnd end : {PathEnd::kTop, PathEnd::kBottom}) {
        const Vertex src[] = {u};
        const auto expected = brute_query(s.g, s.index, src, seg, end);
        const auto got = s.oracle.query_vertex(u, seg, end);
        ASSERT_EQ(got.has_value(), expected.has_value())
            << "u=" << u << " seg=[" << seg.top << ".." << seg.bottom << "]";
        if (got) {
          EXPECT_EQ(got->v, expected->v);
          EXPECT_TRUE(s.g.has_edge(got->u, got->v));
        }
      }
    }
  }
}

// D built over a graph that gained edges after its base tree: cross edges
// between unrelated base vertices (listed as patches, one of them twice) and
// vertices beyond the base with edges (held as patches by the build). The
// CSR rows keep only ancestor pairs, so every query still matches brute
// force over the graph.
TEST(Oracle, NonAncestorEdgesHeldAsPatchesMatchBruteForce) {
  Rng rng(35);
  for (int trial = 0; trial < 12; ++trial) {
    const Vertex n = 150;
    Graph g = gen::random_connected(n, 300, rng);
    TreeIndex index;
    index.build(static_dfs(g));
    std::vector<Edge> cross;
    while (cross.size() < 16) {
      const auto u = static_cast<Vertex>(rng.below(n));
      const auto v = static_cast<Vertex>(rng.below(n));
      if (u == v || index.is_ancestor(u, v) || index.is_ancestor(v, u)) continue;
      if (g.add_edge(u, v)) cross.push_back({u, v});
    }
    cross.push_back({cross.front().v, cross.front().u});
    for (int i = 0; i < 4; ++i) {
      // Neighbors among the base vertices and the new vertices so far.
      std::vector<Vertex> nbrs;
      while (nbrs.size() < 3) {
        const auto z = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
        if (std::find(nbrs.begin(), nbrs.end(), z) == nbrs.end()) nbrs.push_back(z);
      }
      g.add_vertex(nbrs);
    }
    AdjacencyOracle oracle;
    oracle.build(g, index, nullptr, cross);
    EXPECT_EQ(oracle.patch_count(), 0u) << "build-time patches are not noted ones";
    for (int q = 0; q < 300; ++q) {
      const PathSeg seg = random_segment(index, n, rng);
      const auto u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
      if (index.in_forest(u) && index.is_ancestor(seg.top, u) &&
          index.is_ancestor(u, seg.bottom)) {
        continue;  // disjointness precondition
      }
      for (const PathEnd end : {PathEnd::kTop, PathEnd::kBottom}) {
        const Vertex src[] = {u};
        const auto expected = brute_query(g, index, src, seg, end);
        const auto got = oracle.query_vertex(u, seg, end);
        ASSERT_EQ(got.has_value(), expected.has_value())
            << "u=" << u << " seg=[" << seg.top << ".." << seg.bottom << "]";
        if (got) {
          EXPECT_EQ(got->v, expected->v);
        }
      }
    }
    // Every current edge is enumerated exactly once per endpoint.
    for (Vertex u = 0; u < g.capacity(); ++u) {
      std::vector<Vertex> seen;
      oracle.for_each_current_neighbor(u, [&](Vertex z) { seen.push_back(z); });
      std::vector<Vertex> row(g.neighbors(u).begin(), g.neighbors(u).end());
      std::sort(seen.begin(), seen.end());
      std::sort(row.begin(), row.end());
      EXPECT_EQ(seen, row) << "u=" << u;
    }
  }
}

TEST(Oracle, SubtreeQueriesMatchBruteForce) {
  Rng rng(32);
  for (int trial = 0; trial < 15; ++trial) {
    OracleFixture s(gen::random_connected(100, 200, rng));
    for (int q = 0; q < 100; ++q) {
      const PathSeg seg = random_segment(s.index, 100, rng);
      const Vertex w = static_cast<Vertex>(rng.below(100));
      // Subtree must be disjoint from the segment.
      if (s.index.is_ancestor(w, seg.bottom) || s.index.is_ancestor(seg.top, w)) {
        continue;
      }
      const auto sub = s.index.subtree_span(w);
      for (const PathEnd end : {PathEnd::kTop, PathEnd::kBottom}) {
        const auto expected = brute_query(s.g, s.index, sub, seg, end);
        const auto got = s.oracle.query_sources(sub, seg, end);
        ASSERT_EQ(got.has_value(), expected.has_value());
        if (got) {
          EXPECT_EQ(got->v, expected->v);
        }
      }
    }
  }
}

TEST(Oracle, SegmentToSegmentMatchesBruteForce) {
  Rng rng(33);
  for (int trial = 0; trial < 15; ++trial) {
    OracleFixture s(gen::random_connected(100, 250, rng));
    for (int q = 0; q < 200; ++q) {
      const PathSeg a = random_segment(s.index, 100, rng);
      const PathSeg b = random_segment(s.index, 100, rng);
      // Segments must be vertex-disjoint.
      auto intersects = [&](const PathSeg& x, const PathSeg& y) {
        for (Vertex v = y.bottom;; v = s.index.parent(v)) {
          if (s.index.is_ancestor(x.top, v) && s.index.is_ancestor(v, x.bottom)) {
            return true;
          }
          if (v == y.top) break;
        }
        return false;
      };
      if (intersects(a, b)) continue;
      std::vector<Vertex> a_verts;
      for (Vertex v = a.bottom;; v = s.index.parent(v)) {
        a_verts.push_back(v);
        if (v == a.top) break;
      }
      for (const PathEnd end : {PathEnd::kTop, PathEnd::kBottom}) {
        const auto expected = brute_query(s.g, s.index, a_verts, b, end);
        const auto got = s.oracle.query_segments(a, b, end);
        ASSERT_EQ(got.has_value(), expected.has_value())
            << "a=[" << a.top << ".." << a.bottom << "] b=[" << b.top << ".."
            << b.bottom << "]";
        if (got) {
          EXPECT_EQ(s.index.post(got->v), s.index.post(expected->v));
          EXPECT_TRUE(s.g.has_edge(got->u, got->v));
        }
      }
    }
  }
}

TEST(Oracle, DeletedEdgesAreSkipped) {
  // Path 0-1-2-3-4 with back edges (0,3) and (1,3).
  Graph g = gen::path(5);
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  OracleFixture s(std::move(g));
  const PathSeg seg{0, 2};  // chain 0-1-2
  auto e = s.oracle.query_vertex(3, seg, PathEnd::kBottom);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 2);  // tree edge (2,3) nearest the bottom
  s.oracle.note_edge_deleted(2, 3);
  e = s.oracle.query_vertex(3, seg, PathEnd::kBottom);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 1);
  s.oracle.note_edge_deleted(1, 3);
  e = s.oracle.query_vertex(3, seg, PathEnd::kBottom);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 0);
  s.oracle.note_edge_deleted(0, 3);
  EXPECT_FALSE(s.oracle.query_vertex(3, seg, PathEnd::kBottom).has_value());
}

TEST(Oracle, DeletedVertexFiltersItsEdges) {
  Graph g = gen::star(5);  // center 0
  OracleFixture s(std::move(g));
  // Delete leaf 2: edges into it disappear from every query.
  s.oracle.note_vertex_deleted(2, std::vector<Vertex>{0});
  const PathSeg seg{2, 2};
  EXPECT_FALSE(s.oracle.query_vertex(0, seg, PathEnd::kTop).has_value());
}

TEST(Oracle, InsertedEdgesAreFound) {
  Graph g = gen::path(6);
  OracleFixture s(std::move(g));
  // New edge (0,4): not in the base adjacency.
  s.oracle.note_edge_inserted(0, 4);
  const PathSeg seg{0, 1};
  const auto e = s.oracle.query_vertex(4, seg, PathEnd::kTop);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 0);
}

TEST(Oracle, InsertedVertexSingletonSegment) {
  Graph g = gen::path(4);
  OracleFixture s(std::move(g));
  // Insert vertex 4 adjacent to 1 and 3.
  const std::vector<Vertex> nbrs = {1, 3};
  s.oracle.note_vertex_inserted(4, nbrs);
  const PathSeg singleton{4, 4};
  EXPECT_TRUE(s.oracle.query_vertex(1, singleton, PathEnd::kTop).has_value());
  EXPECT_TRUE(s.oracle.query_vertex(3, singleton, PathEnd::kTop).has_value());
  EXPECT_FALSE(s.oracle.query_vertex(2, singleton, PathEnd::kTop).has_value());
  // The inserted vertex can also search: its edges live in the extras.
  const PathSeg seg{0, 3};
  const auto e = s.oracle.query_vertex(4, seg, PathEnd::kBottom);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 3);
}

TEST(Oracle, ClearPatchesRestoresBuildState) {
  Graph g = gen::path(5);
  g.add_edge(0, 3);
  OracleFixture s(std::move(g));
  s.oracle.note_edge_deleted(0, 3);
  s.oracle.note_vertex_inserted(5, std::vector<Vertex>{2});
  EXPECT_GT(s.oracle.patch_count(), 0u);
  s.oracle.clear_patches();
  EXPECT_EQ(s.oracle.patch_count(), 0u);
  const PathSeg seg{0, 1};
  const auto e = s.oracle.query_vertex(3, seg, PathEnd::kTop);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 0) << "deleted edge must reappear after clear_patches";
}

TEST(Oracle, DescendantDirectionProbe) {
  // After rerooting (fault-tolerant mode) a searcher can sit ABOVE the
  // segment in base coordinates; probe_down must find base back edges into
  // the segment. Base tree: chain 0-1-2-3-4 plus back edge (1,4).
  Graph g = gen::path(5);
  g.add_edge(1, 4);
  OracleFixture s(std::move(g));
  const PathSeg seg{4, 4};  // singleton deep segment
  const auto e = s.oracle.query_vertex(1, seg, PathEnd::kTop);
  ASSERT_TRUE(e.has_value()) << "u above the segment must still see its edge";
  EXPECT_EQ(e->v, 4);
  EXPECT_EQ(e->u, 1);
}

}  // namespace
}  // namespace pardfs
