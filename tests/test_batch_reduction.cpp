// reduce_batch's grouping against a brute-force oracle. The reduction cuts
// every tree touched by a batch into pieces and groups them with one sweep
// over the skeleton chains' current adjacency. Whatever the sweep order and
// wherever it stops early, the groups must be exactly the connected
// components of the updated graph over the touched trees:
//   * every emitted component covers one BFS component, vertex for vertex;
//   * every single-piece group (a `direct` entry) is a detached piece whose
//     vertex set is one BFS component;
//   * together the groups cover every surviving vertex of the touched trees.
// Graphs have deep DFS trees (grids, paths with chords, dynamic_map churn),
// where a chain sweep walks far, and batches mix cross-tree inserts, vertex
// deletes and a tree edge deleted and re-inserted in the same batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/batch_reduction.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

// The pre-batch state reduce_batch sees: the graph, its DFS forest and D
// built over both. apply() then follows DynamicDfs's call protocol — mutate
// the graph, patch D, classify against the pre-batch forest — and reduces.
struct Harness {
  Graph g;
  std::vector<Vertex> parent;
  TreeIndex cur;
  AdjacencyOracle oracle;
  BatchChanges changes;

  Harness(Graph graph, std::vector<Vertex> forest)
      : g(std::move(graph)), parent(std::move(forest)) {
    cur.build(parent, g.alive());
    oracle.build(g, cur);
  }

  BatchReduction apply(const std::vector<GraphUpdate>& batch) {
    for (const GraphUpdate& op : batch) {
      switch (op.kind) {
        case GraphUpdate::Kind::kInsertEdge: {
          const bool back = cur.is_ancestor(op.u, op.v) || cur.is_ancestor(op.v, op.u);
          EXPECT_TRUE(g.add_edge(op.u, op.v));
          oracle.note_edge_inserted(op.u, op.v);
          if (!back) changes.inserted_edges.push_back({op.u, op.v});
          break;
        }
        case GraphUpdate::Kind::kDeleteEdge: {
          const bool u_parent = parent[static_cast<std::size_t>(op.v)] == op.u;
          const bool v_parent = parent[static_cast<std::size_t>(op.u)] == op.v;
          oracle.note_edge_deleted(op.u, op.v);
          EXPECT_TRUE(g.remove_edge(op.u, op.v));
          if (u_parent) {
            changes.cut_edges.emplace_back(op.u, op.v);
          } else if (v_parent) {
            changes.cut_edges.emplace_back(op.v, op.u);
          }
          break;
        }
        case GraphUpdate::Kind::kDeleteVertex: {
          const auto nbrs = g.neighbors(op.u);
          const std::vector<Vertex> former(nbrs.begin(), nbrs.end());
          oracle.note_vertex_deleted(op.u, former);
          g.remove_vertex(op.u);
          changes.deleted_vertices.push_back(op.u);
          break;
        }
        case GraphUpdate::Kind::kInsertVertex:
          ADD_FAILURE() << "vertex inserts need the work cap";
          break;
      }
    }
    const OracleView view(&oracle, &cur, /*identity=*/true);
    return reduce_batch(cur, view, g, changes);
  }

  std::vector<Vertex> piece_vertices(const Piece& p) const {
    if (p.kind == PieceKind::kSubtree) {
      const auto span = cur.subtree_span(p.root);
      return {span.begin(), span.end()};
    }
    std::vector<Vertex> out;
    for (Vertex v = p.bottom;; v = cur.parent(v)) {
      out.push_back(v);
      if (v == p.top) break;
    }
    return out;
  }

  // Connected component of v in the updated graph, by BFS.
  std::vector<Vertex> bfs(Vertex v) const {
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(g.capacity()), 0);
    std::vector<Vertex> out = {v};
    seen[static_cast<std::size_t>(v)] = 1;
    for (std::size_t i = 0; i < out.size(); ++i) {
      for (const Vertex z : g.neighbors(out[i])) {
        if (!seen[static_cast<std::size_t>(z)]) {
          seen[static_cast<std::size_t>(z)] = 1;
          out.push_back(z);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // True iff `set` (sorted) is one piece headed at v: v's whole subtree, or
  // a downward path from v.
  bool is_detached_piece(Vertex v, const std::vector<Vertex>& set) const {
    const auto span = cur.subtree_span(v);
    std::vector<Vertex> subtree(span.begin(), span.end());
    std::sort(subtree.begin(), subtree.end());
    if (subtree == set) return true;
    std::vector<Vertex> path;
    for (Vertex x = v;;) {
      path.push_back(x);
      Vertex next = kNullVertex;
      for (const Vertex c : cur.children(x)) {
        if (std::binary_search(set.begin(), set.end(), c)) {
          if (next != kNullVertex) return false;  // branches: not a path
          next = c;
        }
      }
      if (next == kNullVertex) break;
      x = next;
    }
    std::sort(path.begin(), path.end());
    return path == set;
  }

  // Checks the reduction against the brute-force components of the updated
  // graph over the trees the batch touched.
  void check(const BatchReduction& red) const {
    std::vector<Vertex> touched;
    for (const auto& [p, c] : changes.cut_edges) touched.insert(touched.end(), {p, c});
    for (const Vertex v : changes.deleted_vertices) touched.push_back(v);
    for (const Edge& e : changes.inserted_edges) touched.insert(touched.end(), {e.u, e.v});
    std::vector<std::uint8_t> root_hit(static_cast<std::size_t>(cur.capacity()), 0);
    for (const Vertex v : touched) root_hit[static_cast<std::size_t>(cur.root_of(v))] = 1;
    std::vector<Vertex> expected;  // surviving vertices of the touched trees
    for (Vertex v = 0; v < cur.capacity(); ++v) {
      if (cur.in_forest(v) && g.is_alive(v) &&
          root_hit[static_cast<std::size_t>(cur.root_of(v))]) {
        expected.push_back(v);
      }
    }

    std::vector<std::uint8_t> covered(static_cast<std::size_t>(g.capacity()), 0);
    std::size_t total = 0;
    const auto claim = [&](const std::vector<Vertex>& set) {
      for (const Vertex v : set) {
        ASSERT_TRUE(g.is_alive(v)) << "group holds dead vertex " << v;
        ASSERT_FALSE(covered[static_cast<std::size_t>(v)])
            << "vertex " << v << " in two groups";
        covered[static_cast<std::size_t>(v)] = 1;
      }
      total += set.size();
    };
    for (const Component& comp : red.components) {
      ASSERT_GE(comp.pieces.size(), 2u) << "single pieces go to `direct`";
      std::vector<Vertex> set;
      for (const Piece& p : comp.pieces) {
        const std::vector<Vertex> pv = piece_vertices(p);
        set.insert(set.end(), pv.begin(), pv.end());
      }
      std::sort(set.begin(), set.end());
      ASSERT_TRUE(std::binary_search(set.begin(), set.end(), comp.entry));
      ASSERT_EQ(set, bfs(comp.entry)) << "component != BFS component of "
                                      << comp.entry;
      claim(set);
    }
    for (const auto& [v, p] : red.direct) {
      ASSERT_EQ(p, kNullVertex);
      const std::vector<Vertex> set = bfs(v);
      ASSERT_TRUE(is_detached_piece(v, set))
          << "direct entry " << v << " is not a detached piece";
      claim(set);
    }
    ASSERT_EQ(total, expected.size()) << "groups miss touched-tree vertices";
    for (const Vertex v : expected) {
      ASSERT_TRUE(covered[static_cast<std::size_t>(v)]) << "vertex " << v << " uncovered";
    }
  }
};

// k random feasible updates against the pre-batch state: tree-edge and
// non-tree deletes, vertex deletes, random inserts (cross-tree whenever the
// endpoints sit in different trees), and one tree edge deleted and then
// re-inserted.
std::vector<GraphUpdate> random_batch(const Graph& initial,
                                      const std::vector<Vertex>& parent, Rng& rng,
                                      int k) {
  Graph mirror = initial;
  std::vector<GraphUpdate> batch;
  const auto random_alive = [&]() -> Vertex {
    for (;;) {
      const auto v = static_cast<Vertex>(
          rng.below(static_cast<std::uint64_t>(mirror.capacity())));
      if (mirror.is_alive(v)) return v;
    }
  };
  const auto tree_edge = [&](Vertex& p, Vertex& c) {
    for (int tries = 0; tries < 64; ++tries) {
      c = random_alive();
      p = parent[static_cast<std::size_t>(c)];
      if (p != kNullVertex && mirror.has_edge(p, c)) return true;
    }
    return false;
  };
  Vertex p = kNullVertex;
  Vertex c = kNullVertex;
  if (tree_edge(p, c)) {
    batch.push_back(GraphUpdate::delete_edge(p, c));
    batch.push_back(GraphUpdate::insert_edge(p, c));
  }
  while (static_cast<int>(batch.size()) < k && mirror.num_vertices() > 4) {
    switch (rng.below(4)) {
      case 0:
        if (tree_edge(p, c)) {
          mirror.remove_edge(p, c);
          batch.push_back(GraphUpdate::delete_edge(p, c));
        }
        break;
      case 1: {
        const Vertex u = random_alive();
        const auto nbrs = mirror.neighbors(u);
        if (nbrs.empty()) break;
        const Vertex v = nbrs[rng.below(nbrs.size())];
        mirror.remove_edge(u, v);
        batch.push_back(GraphUpdate::delete_edge(u, v));
        break;
      }
      case 2: {
        const Vertex v = random_alive();
        mirror.remove_vertex(v);
        batch.push_back(GraphUpdate::delete_vertex(v));
        break;
      }
      default: {
        const Vertex u = random_alive();
        const Vertex v = random_alive();
        if (u == v || mirror.has_edge(u, v)) break;
        mirror.add_edge(u, v);
        batch.push_back(GraphUpdate::insert_edge(u, v));
        break;
      }
    }
  }
  return batch;
}

// Two disjoint copies of `part` side by side, so random inserts cross trees.
Graph twin(const Graph& part) {
  const Vertex n = part.capacity();
  Graph g(2 * n);
  for (const Edge& e : part.edges()) {
    g.add_edge(e.u, e.v);
    g.add_edge(e.u + n, e.v + n);
  }
  return g;
}

Graph path_with_chords(Vertex n, int chords, Rng& rng) {
  Graph g = gen::path(n);
  for (int i = 0; i < chords; ++i) {
    const auto a = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (a != b) g.add_edge(a, b);
  }
  return g;
}

void sweep_random_batches(const Graph& graph, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<Vertex> forest = static_dfs(graph);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 2 + static_cast<int>(rng.below(12));
    const std::vector<GraphUpdate> batch = random_batch(graph, forest, rng, k);
    Harness h(graph, forest);
    const BatchReduction red = h.apply(batch);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", k = " + std::to_string(k));
    h.check(red);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BatchReduction, GridGroupsMatchBfs) {
  sweep_random_batches(twin(gen::grid(12, 14)), 11);
}

TEST(BatchReduction, PathWithChordsGroupsMatchBfs) {
  Rng rng(5);
  sweep_random_batches(twin(path_with_chords(150, 30, rng)), 12);
}

TEST(BatchReduction, DynamicMapStreamGroupsMatchBfs) {
  // The dynamic_map stream itself: obstacle churn deletes vertices and
  // re-opens cells under fresh ids. Each batch is the stream's run up to the
  // next vertex insert, reduced from the engine's current forest, and then
  // applied to the engine so the next batch starts from the churned state.
  const service::WorkloadSpec spec{service::Scenario::kDynamicMap, 400, 3};
  service::WorkloadDriver driver(spec);
  DynamicDfs dfs(service::make_initial_graph(spec));
  int reduced = 0;
  for (int step = 0; step < 60; ++step) {
    std::vector<GraphUpdate> batch;
    GraphUpdate next = driver.next();
    while (next.kind != GraphUpdate::Kind::kInsertVertex && batch.size() < 12) {
      batch.push_back(next);
      next = driver.next();
    }
    if (batch.size() >= 2) {
      Harness h(dfs.graph(), {dfs.parent().begin(), dfs.parent().end()});
      const BatchReduction red = h.apply(batch);
      SCOPED_TRACE("step " + std::to_string(step));
      h.check(red);
      if (HasFatalFailure()) return;
      ++reduced;
    }
    batch.push_back(next);
    dfs.apply_batch(batch);
  }
  EXPECT_GT(reduced, 20);
}

TEST(BatchReduction, BackEdgeAtChainTopIsTheOnlyLink) {
  // Path 0-1-...-7 with the chord (0, 7). Cutting (4, 5) leaves the chain
  // 0..4, the chain [5] and the subtree {6, 7} hanging from 5. The chain
  // 0..4 reaches the rest only through the chord at its top — the last row
  // its bottom-up sweep reads — and 7 lies in a subtree, which no sweep
  // starts from.
  Graph g = gen::path(8);
  g.add_edge(0, 7);
  Harness h(g, {kNullVertex, 0, 1, 2, 3, 4, 5, 6});
  const BatchReduction red = h.apply({GraphUpdate::delete_edge(4, 5),
                                      GraphUpdate::delete_edge(2, 3),
                                      GraphUpdate::insert_edge(2, 3)});
  h.check(red);
  ASSERT_EQ(red.components.size(), 1u);
  EXPECT_TRUE(red.direct.empty());
  EXPECT_EQ(red.components.front().entry, 0);
}

TEST(BatchReduction, WithoutTheChordTheTailDetaches) {
  Harness h(gen::path(8), {kNullVertex, 0, 1, 2, 3, 4, 5, 6});
  const BatchReduction red = h.apply({GraphUpdate::delete_edge(4, 5),
                                      GraphUpdate::delete_edge(1, 2)});
  h.check(red);
  // Three detached groups: {0, 1}, {2, 3, 4} and {5, 6, 7} (the chain [5]
  // with its hanging subtree).
  EXPECT_EQ(red.direct.size() + red.components.size(), 3u);
}

// Under the work cap an inserted vertex is a region of its own outside the
// pre-batch index: joined through its surviving edges to the trees at their
// far ends and recomputed with them, a root of its own when no edge is left,
// and nothing at all when it died in the batch.
TEST(BatchReduction, InsertedVerticesAreRecomputedWithTheirRegion) {
  Graph g(10);
  for (Vertex i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);  // tree 0..4
  for (Vertex i = 5; i + 1 < 10; ++i) g.add_edge(i, i + 1);  // tree 5..9
  g.add_vertex();                                            // 10, isolated
  Harness h(g, static_dfs(g));
  const std::vector<Vertex> joiner = {2, 7};
  const std::vector<Vertex> doomed = {3};
  const Vertex x = h.g.add_vertex(joiner);  // joins trees 0 and 5
  h.oracle.note_vertex_inserted(x, joiner);
  const Vertex y = h.g.add_vertex();        // no edge
  h.oracle.note_vertex_inserted(y, {});
  const Vertex z = h.g.add_vertex(doomed);  // dies in the same batch
  h.oracle.note_vertex_inserted(z, doomed);
  h.oracle.note_vertex_deleted(z, doomed);
  h.g.remove_vertex(z);
  h.changes.inserted_vertices = {x, y, z};
  const OracleView view(&h.oracle, &h.cur, /*identity=*/true);
  const BatchReduction red = reduce_batch(h.cur, view, h.g, h.changes, /*work_cap=*/true);
  ASSERT_EQ(red.components.size(), 1u);
  const Component& c = red.components.front();
  EXPECT_TRUE(c.recompute);
  EXPECT_EQ(c.new_vertices, std::vector<Vertex>{x});
  ASSERT_EQ(c.pieces.size(), 2u);
  EXPECT_EQ(c.pieces[0].root, h.cur.root_of(2));
  EXPECT_EQ(c.pieces[1].root, h.cur.root_of(7));
  EXPECT_EQ(c.budget, 11);
  const std::vector<std::pair<Vertex, Vertex>> want_direct = {{y, kNullVertex}};
  EXPECT_EQ(red.direct, want_direct) << "tree 10 and the dead z need nothing";

  // The serial finish takes the new id as a member: one tree over all 11.
  std::vector<Vertex> parent = h.parent;
  parent.resize(static_cast<std::size_t>(h.g.capacity()), kNullVertex);
  Rerooter engine(h.cur, view, RerootStrategy::kPaper, nullptr, 1,
                  Rerooter::default_serial_cutoff(h.g.capacity()), &h.g);
  const RerootStats stats = engine.run_components(red.components, parent);
  EXPECT_EQ(stats.recomputes, 1u);
  EXPECT_EQ(stats.vertices_traversed, 11u);
  for (const auto& [v, p] : red.direct) parent[static_cast<std::size_t>(v)] = p;
  EXPECT_TRUE(validate_dfs_forest(h.g, parent).ok);
}

}  // namespace
}  // namespace pardfs
