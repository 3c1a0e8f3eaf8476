// The engine's leftover grouping (detail::group_leftovers) against a
// brute-force reference. After a traversal walks p*, the unvisited pieces
// are grouped by the edges that can join two of them — tree edges between
// pieces united structurally, back edges read from the pass's shared
// non-tree rows — and each group enters at its edge to p* that the DFS
// retreat meets first. Whatever the sweep reads and wherever it stops, the
// result must equal a BFS over the leftover vertices of the current graph:
//   * the same partition of the pieces, groups in order of their first piece;
//   * per group, the entry u and attach_parent q of the edge (q, u) with q
//     latest on p*, ties broken by the smallest u;
//   * entry_piece names the piece holding u.
// Traversals come from real engine plans over reduce_batch components of
// grids, random connected graphs and wheels (a star plus a rim) under random
// tree-edge and vertex-deletion batches, followed round after round. Two
// hand-built cases put a dead tree edge between two pieces — a base edge and
// a patched-in edge deleted again — which must not unite them. A last test
// runs the engine on a team that shares the non-tree rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/batch_reduction.hpp"
#include "core/rerooter_internal.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

bool same_piece(const Piece& a, const Piece& b) {
  return a.kind == b.kind && a.root == b.root && a.top == b.top &&
         a.bottom == b.bottom;
}

// A graph, its DFS forest and D over both; deletions follow the engine's
// call protocol (mutate the graph, patch D, classify against the forest).
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
  explicit Harness(Graph graph) : Harness(graph, static_dfs(graph)) {}

  OracleView view() const { return OracleView(&oracle, &cur, /*identity=*/true); }

  void delete_tree_edge(Vertex child) {
    const Vertex p = parent[static_cast<std::size_t>(child)];
    oracle.note_edge_deleted(p, child);
    ASSERT_TRUE(g.remove_edge(p, child));
    changes.cut_edges.emplace_back(p, child);
  }

  void delete_vertex(Vertex v) {
    const auto nbrs = g.neighbors(v);
    const std::vector<Vertex> former(nbrs.begin(), nbrs.end());
    oracle.note_vertex_deleted(v, former);
    g.remove_vertex(v);
    changes.deleted_vertices.push_back(v);
  }

  // A random batch: tree-edge and vertex deletions, `count` in all.
  void random_deletions(Rng& rng, int count) {
    const auto n = static_cast<std::uint64_t>(g.capacity());
    for (int done = 0, tries = 0; done < count && tries < 100 * count; ++tries) {
      const auto v = static_cast<Vertex>(rng.below(n));
      if (!g.alive()[static_cast<std::size_t>(v)]) continue;
      if (rng.below(3) == 0) {
        delete_vertex(v);
        ++done;
        continue;
      }
      const Vertex p = parent[static_cast<std::size_t>(v)];
      if (p == kNullVertex || !g.has_edge(p, v)) continue;
      delete_tree_edge(v);
      ++done;
    }
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

  // Checks one grouping against a BFS over the leftover vertices.
  void check(const detail::TraversalPlan& plan, const std::vector<Component>& got,
             std::int32_t budget) const {
    const auto cap = static_cast<std::size_t>(g.capacity());
    const std::size_t k = plan.leftovers.size();
    std::vector<std::int32_t> piece_of(cap, -1);
    for (std::size_t i = 0; i < k; ++i) {
      for (const Vertex v : piece_vertices(plan.leftovers[i])) {
        piece_of[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
      }
    }
    // BFS labels over the leftover vertices, in piece order.
    std::vector<std::int32_t> label(cap, -1);
    std::int32_t labels = 0;
    std::vector<std::int32_t> label_of_piece(k, -1);
    for (std::size_t i = 0; i < k; ++i) {
      const Vertex head = piece_vertices(plan.leftovers[i]).front();
      if (label[static_cast<std::size_t>(head)] < 0) {
        std::vector<Vertex> queue = {head};
        label[static_cast<std::size_t>(head)] = labels;
        for (std::size_t q = 0; q < queue.size(); ++q) {
          for (const Vertex z : g.neighbors(queue[q])) {
            const auto zs = static_cast<std::size_t>(z);
            if (piece_of[zs] >= 0 && label[zs] < 0) {
              label[zs] = labels;
              queue.push_back(z);
            }
          }
        }
        ++labels;
      }
      label_of_piece[i] = label[static_cast<std::size_t>(head)];
      for (const Vertex v : piece_vertices(plan.leftovers[i])) {
        ASSERT_EQ(label[static_cast<std::size_t>(v)], label_of_piece[i])
            << "piece " << i << " is not connected";
      }
    }
    ASSERT_EQ(got.size(), static_cast<std::size_t>(labels)) << "group count";
    for (std::int32_t c = 0; c < labels; ++c) {
      const Component& comp = got[static_cast<std::size_t>(c)];
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < k; ++i) {
        if (label_of_piece[i] == c) members.push_back(i);
      }
      ASSERT_EQ(comp.pieces.size(), members.size()) << "group " << c;
      for (std::size_t j = 0; j < members.size(); ++j) {
        EXPECT_TRUE(same_piece(comp.pieces[j], plan.leftovers[members[j]]))
            << "group " << c << " piece " << j;
      }
      // The retreat meets the latest chain vertex with an edge into the
      // group first; the smallest endpoint in the group breaks the tie.
      Vertex attach = kNullVertex;
      Vertex entry = kNullVertex;
      for (std::size_t idx = plan.pstar.size(); idx-- > 0 && attach == kNullVertex;) {
        for (const Vertex z : g.neighbors(plan.pstar[idx])) {
          if (label[static_cast<std::size_t>(z)] != c) continue;
          attach = plan.pstar[idx];
          entry = entry == kNullVertex ? z : std::min(entry, z);
        }
      }
      ASSERT_NE(attach, kNullVertex) << "group " << c << " has no edge to p*";
      EXPECT_EQ(comp.attach_parent, attach) << "group " << c;
      EXPECT_EQ(comp.entry, entry) << "group " << c;
      ASSERT_GE(comp.entry_piece, 0);
      ASSERT_LT(static_cast<std::size_t>(comp.entry_piece), members.size());
      EXPECT_EQ(piece_of[static_cast<std::size_t>(entry)],
                static_cast<std::int32_t>(members[static_cast<std::size_t>(comp.entry_piece)]))
          << "group " << c << " entry_piece";
      EXPECT_EQ(comp.budget, budget);
    }
  }

  // Reduces the batch and follows every component round after round, as the
  // engine does without a serial cutoff, checking each traversal's grouping.
  // Returns the number of groupings checked.
  int run_and_check() {
    const OracleView v = view();
    std::vector<Component> active = reduce_batch(cur, g, changes).components;
    detail::NonTreeRows rows(cur, g, nullptr);
    detail::EngineCtx ctx(cur, g, v, &rows);
    int checked = 0;
    while (!active.empty()) {
      std::vector<Component> next;
      for (const Component& comp : active) {
        ctx.begin_step();
        const detail::TraversalPlan plan =
            detail::plan_traversal(ctx, comp, RerootStrategy::kPaper);
        if (plan.leftovers.empty()) continue;
        std::vector<Component> got;
        detail::group_leftovers(ctx, comp, plan, got);
        check(plan, got, comp.budget);
        if (::testing::Test::HasFatalFailure()) return checked;
        ++checked;
        std::move(got.begin(), got.end(), std::back_inserter(next));
      }
      active.swap(next);
    }
    return checked;
  }
};

// A star whose leaves also form a ring, plus a few random chords: the DFS
// runs deep along the rim, and every rim vertex has back edges to the hub.
Graph wheel(Vertex n, Rng& rng) {
  Graph g = gen::star(n);
  for (Vertex v = 1; v + 1 < n; ++v) g.add_edge(v, v + 1);
  for (int i = 0; i < n / 8; ++i) {
    const auto a = static_cast<Vertex>(1 + rng.below(static_cast<std::uint64_t>(n - 1)));
    const auto b = static_cast<Vertex>(1 + rng.below(static_cast<std::uint64_t>(n - 1)));
    if (a != b) g.add_edge(a, b);
  }
  return g;
}

TEST(LeftoverGrouping, MatchesBfsReferenceUnderRandomDeletions) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (int family = 0; family < 3; ++family) {
      Rng rng(seed * 31 + static_cast<std::uint64_t>(family));
      Graph g = family == 0   ? gen::grid(24, 24)
                : family == 1 ? gen::random_connected(600, 900, rng)
                              : wheel(500, rng);
      Harness h(std::move(g));
      h.random_deletions(rng, 2 + static_cast<int>(seed % 5));
      checked += h.run_and_check();
      ASSERT_FALSE(::testing::Test::HasFatalFailure())
          << "seed " << seed << " family " << family;
    }
  }
  // The batches must produce real multi-round work, not empty reductions.
  EXPECT_GT(checked, 50);
}

// Tree 0-1-2-3-4 plus the back edge (0, 3); the tree edge (2, 3) is dead. With p* = [0] the leftovers path(1, 2) and path(3, 4)
// reach p* separately — 1 by its tree edge, 3 by the back edge — and only
// the dead edge lies between them: two groups, not one.
struct DeadEdgeCase {
  Harness h;
  bool patched;
  explicit DeadEdgeCase(bool patched_edge)
      : h(base_graph(patched_edge), {kNullVertex, 0, 1, 2, 3}), patched(patched_edge) {
    if (patched) {
      // A tree edge D only knows as a patch: inserted after the build, then
      // deleted again. The deletion drops the patch instead of recording a
      // deleted edge; the grouping must read the edge's absence from the
      // graph.
      EXPECT_TRUE(h.g.add_edge(2, 3));
      h.oracle.note_edge_inserted(2, 3);
    }
    h.oracle.note_edge_deleted(2, 3);
    EXPECT_TRUE(h.g.remove_edge(2, 3));
  }
  static Graph base_graph(bool patched) {
    Graph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    if (!patched) g.add_edge(2, 3);
    g.add_edge(3, 4);
    g.add_edge(0, 3);
    return g;
  }

  void run() {
    Component comp;
    comp.entry = 0;
    comp.entry_piece = 0;
    comp.budget = 5;
    comp.pieces = {Piece::subtree(0)};
    detail::TraversalPlan plan;
    plan.pstar = {0};
    plan.leftovers = {Piece::path(1, 2), Piece::path(3, 4)};
    const OracleView view = h.view();
    detail::NonTreeRows rows(h.cur, h.g, nullptr);
    detail::EngineCtx ctx(h.cur, h.g, view, &rows);
    std::vector<Component> got;
    detail::group_leftovers(ctx, comp, plan, got);
    h.check(plan, got, comp.budget);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].entry, 1);
    EXPECT_EQ(got[1].entry, 3);
    EXPECT_EQ(got[1].attach_parent, 0);
  }
};

TEST(LeftoverGrouping, DeadBaseTreeEdgeDoesNotUnitePieces) {
  DeadEdgeCase c(/*patched=*/false);
  c.run();
}

TEST(LeftoverGrouping, DeadPatchedTreeEdgeDoesNotUnitePieces) {
  DeadEdgeCase c(/*patched=*/true);
  c.run();
}

// The rows are built once on the calling thread and read by every worker:
// a team of four, fanned out on every multi-component round, must give the
// single worker's forest and stats, grouping_scanned included.
TEST(LeftoverGrouping, TeamSharesRowsAndMatchesOneWorker) {
  const auto run = [](int threads) {
    Rng rng(7);
    Harness h(gen::grid(48, 48));
    h.random_deletions(rng, 12);
    const OracleView view = h.view();
    BatchReduction red = reduce_batch(h.cur, h.g, h.changes);
    std::vector<Vertex> out = h.parent;
    for (const auto& [v, p] : red.direct) out[static_cast<std::size_t>(v)] = p;
    for (const Vertex v : h.changes.deleted_vertices) {
      out[static_cast<std::size_t>(v)] = kNullVertex;
    }
    detail::set_force_round_team(true);
    Rerooter engine(h.cur, h.g, view, RerootStrategy::kPaper, nullptr, threads,
                    Rerooter::default_serial_cutoff(h.g.capacity()));
    const RerootStats stats = engine.run_components(std::move(red.components), out);
    detail::set_force_round_team(false);
    const auto val = validate_dfs_forest(h.g, out);
    EXPECT_TRUE(val.ok) << val.reason;
    return std::make_pair(out, stats);
  };
  const auto one = run(1);
  const auto team = run(4);
  EXPECT_GT(one.second.grouping_scanned, 0u);
  EXPECT_EQ(one.first, team.first);
  EXPECT_EQ(one.second.global_rounds, team.second.global_rounds);
  EXPECT_EQ(one.second.query_batches, team.second.query_batches);
  EXPECT_EQ(one.second.grouping_scanned, team.second.grouping_scanned);
}

}  // namespace
}  // namespace pardfs
