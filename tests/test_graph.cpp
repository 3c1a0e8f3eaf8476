#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pardfs {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.capacity(), 0);
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, AddAndRemoveEdges) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(0, 1)) << "duplicate edges must be rejected";
  EXPECT_FALSE(g.add_edge(1, 0)) << "duplicates in either direction";
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, DegreeAndNeighbors) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  const auto nbrs = g.neighbors(0);
  EXPECT_EQ(nbrs.size(), 3u);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), 2), nbrs.end());
}

TEST(Graph, VertexInsertionWithEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  const Vertex nbrs[] = {0, 2};
  const Vertex v = g.add_vertex(nbrs);
  EXPECT_EQ(v, 3);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(Graph, VertexDeletionRemovesIncidentEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.remove_vertex(1);
  EXPECT_FALSE(g.is_alive(1));
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0);
}

TEST(Graph, IdsAreNotRecycled) {
  Graph g(2);
  g.remove_vertex(1);
  const Vertex v = g.add_vertex();
  EXPECT_EQ(v, 2) << "deleted ids must stay dead";
  EXPECT_FALSE(g.is_alive(1));
  EXPECT_TRUE(g.is_alive(2));
}

TEST(Graph, EdgesListing) {
  Graph g(4);
  g.add_edge(2, 1);
  g.add_edge(3, 0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

// Rows compared verbatim: apply must preserve neighbour order too.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (Vertex v = 0; v < a.capacity(); ++v) {
    EXPECT_EQ(a.is_alive(v), b.is_alive(v)) << "vertex " << v;
    EXPECT_TRUE(std::ranges::equal(a.neighbors(v), b.neighbors(v))) << "vertex " << v;
  }
}

TEST(Graph, ApplyMatchesTheDirectCallForEveryKind) {
  Graph base(5);
  base.add_edge(0, 1);
  base.add_edge(1, 2);
  base.add_edge(2, 3);
  base.add_edge(1, 3);

  // `direct_call` mutates its graph directly and returns the id it expects.
  const auto check = [&base](const GraphUpdate& u, auto direct_call) {
    Graph direct = base, applied = base;
    const Vertex expected = direct_call(direct);
    EXPECT_EQ(applied.apply(u), expected);
    expect_same_graph(direct, applied);
  };
  check(GraphUpdate::insert_edge(0, 4), [](Graph& g) {
    g.add_edge(0, 4);
    return kNullVertex;
  });
  check(GraphUpdate::delete_edge(1, 2), [](Graph& g) {
    g.remove_edge(1, 2);
    return kNullVertex;
  });
  check(GraphUpdate::insert_vertex({3, 0, 4}), [](Graph& g) {
    const Vertex nbrs[] = {3, 0, 4};
    const Vertex added = g.add_vertex(nbrs);
    EXPECT_EQ(added, 5);
    return added;
  });
  check(GraphUpdate::delete_vertex(1), [](Graph& g) {
    g.remove_vertex(1);
    return kNullVertex;
  });
}

TEST(Graph, UndirectedKeyIsSymmetric) {
  EXPECT_EQ(undirected_key(3, 7), undirected_key(7, 3));
  EXPECT_NE(undirected_key(3, 7), undirected_key(3, 8));
}

}  // namespace
}  // namespace pardfs
