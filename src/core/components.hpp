// Components of the unvisited graph (paper §4) and the oracle view that
// lets the rerooting engine query them against paths of the *current* tree.
//
// The paper maintains every unvisited component in one of two shapes:
//   C1 — a single subtree of the current DFS tree;
//   C2 — one ancestor-descendant path p_c plus subtrees each having an edge
//        to p_c.
// This engine represents a component as {entry vertex r_c, attach edge, set
// of *pieces*}, a piece being a whole current-tree subtree or a monotone
// current-tree path. The paper's invariant is "at most one path piece"; the
// engine tolerates more (a fallback traversal can create them — see
// DESIGN.md §3.4) at the cost of extra rounds, never correctness.
//
// OracleView bridges current-tree coordinates and the base-tree coordinates
// of D: in fully dynamic mode the two trees coincide and every query is one
// oracle call; in fault-tolerant mode a current path is decomposed into
// base-monotone segments (Theorem 9), inserted vertices becoming singleton
// segments.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/adjacency_oracle.hpp"
#include "graph/edge.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

enum class PieceKind : std::uint8_t { kSubtree, kPath };

struct Piece {
  PieceKind kind = PieceKind::kSubtree;
  Vertex root = kNullVertex;    // kSubtree: current-tree subtree root
  Vertex top = kNullVertex;     // kPath: shallow end in the current tree
  Vertex bottom = kNullVertex;  // kPath: deep end in the current tree

  static Piece subtree(Vertex r) { return {PieceKind::kSubtree, r, kNullVertex, kNullVertex}; }
  static Piece path(Vertex top, Vertex bottom) {
    return {PieceKind::kPath, kNullVertex, top, bottom};
  }
  // The piece's shallowest vertex: every other piece vertex has its tree
  // parent inside the piece.
  Vertex head() const { return kind == PieceKind::kSubtree ? root : top; }
};

// Union-find over piece indices (O(k) of them; path halving only), for the
// batch reduction's and the rerooter's piece grouping.
class PieceUf {
 public:
  explicit PieceUf(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  // True iff a and b were in different sets.
  bool unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

struct Component {
  Vertex entry = kNullVertex;          // r_c: root of this component in T*
  Vertex attach_parent = kNullVertex;  // parent of entry in T*; null = tree root
  std::int32_t entry_piece = -1;       // index of the piece containing entry
  std::int32_t budget = 0;             // N0 of the originating reroot (thresholds)
  std::vector<Piece> pieces;
  // Set only by the batch reduction's work cap (core/batch_reduction.hpp):
  // a whole connected component — its pre-batch trees as subtree pieces,
  // deleted vertices still inside them — whose predicted reroot work reached
  // kRecomputeWorkRatio × budget. It has no entry: the engine finishes it
  // with one DFS in its first round, which picks its roots
  // (Rerooter::run_components, serial_finish).
  bool recompute = false;
  // Members of a `recompute` component that the batch inserted: ids at or
  // beyond the pre-batch index's capacity, so no piece covers them.
  // Ascending; the finish roots its trees at them after the pieces.
  std::vector<Vertex> new_vertices;
};

// A base-monotone fragment of a current-tree path, ordered near-to-far.
struct CurSeg {
  PathSeg seg;            // base coordinates (top ancestor of bottom); for an
                          // inserted vertex, top == bottom == that vertex
  bool near_is_top = true;  // which base end of seg faces the path's near end
};

class OracleView {
 public:
  OracleView() = default;
  OracleView(const AdjacencyOracle* oracle, const TreeIndex* current, bool identity)
      : oracle_(oracle), cur_(current), identity_(identity) {}

  const TreeIndex& cur() const { return *cur_; }

  // Decomposes the current-tree monotone path walked from `near` to `far`
  // (inclusive; one endpoint is a current-tree ancestor of the other) into
  // base segments ordered from the near end. Non-identity decompositions
  // walk the whole path (O(length)), so they are memoized per view: a view
  // lives for one update, during which the current tree is immutable, and a
  // reroot re-queries the same paths for every piece it groups.
  void decompose(Vertex near, Vertex far, std::vector<CurSeg>& out) const;

  // Best edge from a piece to the current-tree path [near..far], preferring
  // target endpoints nearest `near`. Returns {x in piece, y on path}.
  std::optional<Edge> query_piece(const Piece& src, Vertex near, Vertex far) const;

  // Any edge between the piece and the path?
  bool piece_has_edge(const Piece& src, Vertex a, Vertex b) const {
    return query_piece(src, a, b).has_value();
  }

  // First edge from a single searcher over pre-decomposed target segments
  // (used by the heavy-subtree scenarios, which reduce per-source results
  // with custom keys).
  std::optional<Edge> query_vertex_over(Vertex u, const std::vector<CurSeg>& segs) const;

 private:
  std::optional<Edge> query_sources_over_segs(std::span<const Vertex> sources,
                                              const std::vector<CurSeg>& segs) const;
  void decompose_uncached(Vertex near, Vertex far, std::vector<CurSeg>& out) const;

  const AdjacencyOracle* oracle_ = nullptr;
  const TreeIndex* cur_ = nullptr;
  bool identity_ = true;
  mutable std::unordered_map<std::uint64_t, std::vector<CurSeg>> decompose_cache_;
};

}  // namespace pardfs
