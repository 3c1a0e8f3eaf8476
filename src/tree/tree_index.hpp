// Rooted-forest index: the tree-side toolbox of the paper (§5.1, §5.3).
//
// Built from a parent array in O(n) work, it answers in O(1):
//   * parent / depth / subtree size / pre & post order index (Theorem 4),
//   * ancestor tests (pre-interval containment),
//   * LCA (Theorem 6; via Euler tour + sparse table — see lca.hpp),
//   * child of `a` on the path towards a descendant `d` (binary search over
//     children ordered by pre index — §5.3 query 3),
// and supports the path/subtree enumerations of §5.3 in time linear in the
// output.
//
// A *forest* is indexed (the paper's virtual root r is kept implicit: each
// graph component's DFS tree is a root in the forest; see reduction.hpp).
// Dead vertices (parent slot kNullVertex, not marked as roots) get size 0
// and pre/post -1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.hpp"
#include "tree/euler_tour.hpp"
#include "tree/lca.hpp"

namespace pardfs {

// How build() computes the tables. kSerial is the one-socket stack DFS;
// kParallel is the paper-faithful Theorem 4 construction (children CSR via
// counting + exclusive scan, Euler tour + O(n)-work list ranking for
// pre/post/depth/size and the orderings, parallel Fischer–Heun block fill).
// Both produce byte-identical tables (pinned by tests/test_rebuild.cpp at
// 1/2/4/8 workers). kAuto is kSerial: BM_BuildTreeIndex (bench_preprocess:
// in-place rebuild of a random_connected DFS tree, Release, the default
// 4-thread pool team on a 4-vCPU Xeon), kParallel vs kSerial wall time in
// microseconds, medians of 3:
//   n = 2^10     124 vs     29      n = 2^16   10917 vs   4189
//   n = 2^12     809 vs    142      n = 2^18   49536 vs  31638
//   n = 2^14    2559 vs    692      n = 2^20  280767 vs 315383
// kParallel never beats kSerial by 1.2x. At 2^20 a single run is noise: the
// one-iteration rows in BENCH_preprocess.json read 269727 vs 360777 while
// kAuto, the same serial code, read 302233; 7 interleaved repetitions give
// 380380 vs 336398. Re-measure on the target host before giving kAuto a
// crossover.
enum class TreeBuildMode : std::uint8_t { kAuto, kSerial, kParallel };

class TreeIndex {
 public:
  TreeIndex() = default;

  // parent[v] == kNullVertex marks v as a root (if alive[v]) or dead (if not).
  // If `alive` is empty every vertex is considered alive.
  // Rebuilding into the same object reuses every buffer (including the LCA
  // table's and the tour scratch): the steady-state epoch rebuild allocates
  // nothing once capacities have stabilized — see heap_capacity_bytes().
  void build(std::span<const Vertex> parent, std::span<const std::uint8_t> alive = {},
             TreeBuildMode mode = TreeBuildMode::kAuto);

  Vertex capacity() const { return static_cast<Vertex>(parent_.size()); }
  bool in_forest(Vertex v) const {
    return v >= 0 && v < capacity() && pre_[static_cast<std::size_t>(v)] >= 0;
  }

  Vertex parent(Vertex v) const { return parent_[static_cast<std::size_t>(v)]; }
  std::span<const Vertex> parents() const { return parent_; }
  std::int32_t depth(Vertex v) const { return depth_[static_cast<std::size_t>(v)]; }
  std::int32_t size(Vertex v) const { return size_[static_cast<std::size_t>(v)]; }
  std::int32_t pre(Vertex v) const { return pre_[static_cast<std::size_t>(v)]; }
  std::int32_t post(Vertex v) const { return post_[static_cast<std::size_t>(v)]; }
  Vertex root_of(Vertex v) const { return tree_root_[static_cast<std::size_t>(v)]; }
  Vertex vertex_at_pre(std::int32_t pre_index) const {
    return order_by_pre_[static_cast<std::size_t>(pre_index)];
  }
  Vertex vertex_at_post(std::int32_t post_index) const {
    return order_by_post_[static_cast<std::size_t>(post_index)];
  }
  std::int32_t num_indexed() const { return num_indexed_; }
  std::span<const Vertex> roots() const { return roots_; }

  std::span<const Vertex> children(Vertex v) const {
    const auto s = static_cast<std::size_t>(child_start_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(child_start_[static_cast<std::size_t>(v) + 1]);
    return {child_list_.data() + s, e - s};
  }

  // True iff a is an ancestor of d or a == d (both must be in the forest).
  bool is_ancestor(Vertex a, Vertex d) const {
    return pre_[static_cast<std::size_t>(a)] <= pre_[static_cast<std::size_t>(d)] &&
           pre_[static_cast<std::size_t>(d)] <
               pre_[static_cast<std::size_t>(a)] + size_[static_cast<std::size_t>(a)];
  }

  // LCA of u and v; kNullVertex if they are in different trees.
  Vertex lca(Vertex u, Vertex v) const;

  // §5.3 query: an edge (x, y) is a back edge iff one endpoint is an
  // ancestor of the other.
  bool is_back_edge(Vertex x, Vertex y) const {
    return is_ancestor(x, y) || is_ancestor(y, x);
  }

  // §5.3 query: the child c of `a` whose subtree contains descendant `d`
  // (a must be a proper ancestor of d). O(log deg(a)).
  Vertex child_toward(Vertex a, Vertex d) const;

  // Number of edges on the tree path between u and v (same tree).
  std::int32_t path_length(Vertex u, Vertex v) const;

  // Vertices of the ancestor-descendant path from `from` to `to`, in order
  // (`to` must be an ancestor of `from` or vice versa). O(output).
  std::vector<Vertex> path_vertices(Vertex from, Vertex to) const;

  // True iff x lies on the tree path between y and z (§5.3 query 4).
  bool on_path(Vertex x, Vertex y, Vertex z) const;

  // Vertices of the subtree rooted at v, in pre-order. O(output).
  std::vector<Vertex> subtree_vertices(Vertex v) const;

  // Zero-copy view of the subtree's vertices (contiguous in pre-order).
  std::span<const Vertex> subtree_span(Vertex v) const {
    const std::int32_t lo = pre_[static_cast<std::size_t>(v)];
    const std::int32_t len = size_[static_cast<std::size_t>(v)];
    return {order_by_pre_.data() + lo, static_cast<std::size_t>(len)};
  }

  // Vertices of the (possibly bent) tree path from a to b, in order.
  // a and b must be in the same tree. O(output).
  std::vector<Vertex> tree_path(Vertex a, Vertex b) const;

  // Sum of owned heap capacities in bytes, tour scratch and LCA table
  // included. A second build() of the same forest shape must leave this
  // unchanged (zero new heap growth) — pinned by tests/test_rebuild.cpp.
  std::size_t heap_capacity_bytes() const;

 private:
  void build_children_csr(std::span<const Vertex> parent,
                          std::span<const std::uint8_t> alive, bool parallel);
  void build_serial(std::span<const std::uint8_t> alive);
  void build_parallel(std::span<const Vertex> parent,
                      std::span<const std::uint8_t> alive);

  std::vector<Vertex> parent_;
  std::vector<Vertex> tree_root_;
  std::vector<std::int32_t> depth_, size_, pre_, post_;
  std::vector<Vertex> order_by_pre_, order_by_post_;
  std::vector<std::int32_t> child_start_;
  std::vector<Vertex> child_list_;
  std::vector<Vertex> roots_;
  std::int32_t num_indexed_ = 0;
  LcaTable lca_;
  // Rebuild scratch, recycled across builds (the LCA table swaps its
  // previous buffers back into the first three on every build; the parallel
  // path swaps the member tables through tour_scratch_ the same way).
  std::vector<Vertex> euler_scratch_;
  std::vector<std::int32_t> euler_depth_scratch_, first_pos_scratch_;
  std::vector<std::int32_t> cursor_scratch_;
  std::vector<std::pair<Vertex, std::int32_t>> stack_scratch_;
  EulerTourTables tour_scratch_;
};

}  // namespace pardfs
