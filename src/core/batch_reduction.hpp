// Combined reduction for a *batch* of updates (paper §3 applied to the full
// k-update set of Theorem 13; the same shape as the fault-tolerant batch of
// Baswana–Gupta–Tulsyan, arXiv:1810.01726).
//
// A single update reduces to rerooting O(1) disjoint subtrees
// (core/reduction). A batch of k structural updates instead reduces to
// rerooting whole *affected trees*: the skeleton S — the ancestor closure of
// the O(k) affected vertices — partitions each affected tree into O(k)
// monotone path pieces (chains of S, cut at deleted vertices, deleted tree
// edges and branch points) plus the subtrees hanging off S. Pieces are
// grouped into edge-connected components of the *updated* graph and each
// group is handed to the rerooting engine as one pre-built component
// (Rerooter::run_components); trees with no affected vertex are left
// untouched. The whole batch therefore costs one reduction, one engine pass
// and — in the caller — one O(n) tree-index rebuild, instead of k of each.
//
// Call protocol: the graph must already be mutated with every update of the
// batch, and the tree index must still describe the PRE-batch forest. The
// reduction reads no D, so a batch whose components all finish serially
// needs none (DynamicDfs builds it on demand).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/components.hpp"
#include "graph/graph.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

// Structural changes of one batch, classified against the pre-batch forest.
struct BatchChanges {
  // Deleted tree edges as (parent_side, child_side) of the pre-batch forest.
  std::vector<std::pair<Vertex, Vertex>> cut_edges;
  std::vector<Vertex> deleted_vertices;
  // Inserted edges that are not back edges of the pre-batch forest. Edges
  // whose endpoints died later in the same batch are filtered internally.
  std::vector<Edge> inserted_edges;
  // Vertices the batch inserted, ascending: ids at or beyond the pre-batch
  // index's capacity. Their surviving edges are read from the updated graph,
  // so the lists above name no edge or deletion that touches them; one that
  // died later in the batch is skipped. Needs the work cap.
  std::vector<Vertex> inserted_vertices;

  bool structural() const {
    return !cut_edges.empty() || !deleted_vertices.empty() ||
           !inserted_edges.empty() || !inserted_vertices.empty();
  }
};

// The work cap (DESIGN.md §9, "Brent completion"). With `work_cap` set,
// reduce_batch first predicts the reroot work of each connected component
// the batch touches: the sum, over the batch's structural changes landing in
// it, of the subtree that change would reroot alone — |T(c)| for a cut tree
// edge (p, c) and for each child c of a deleted vertex; for a cross insert
// (u, v) the smaller of the two subtrees below their LCA, or the smaller tree
// when u and v lie in different trees (whose components the insert merges).
// Every term is read from the pre-batch TreeIndex in O(log deg). A component
// whose prediction reaches kRecomputeWorkRatio × its live vertex count is
// emitted whole, as one Component marked `recompute` (its pre-batch trees
// as subtree pieces), and Rerooter::run_components finishes it with one DFS
// of its rows in round 1: O(vertices + edges), where the prediction says the
// rounds would cost more. Its vertices skip the skeleton and grouping below
// entirely. The figure uses component-local sizes only, so the branch is a
// pure function of (rows, current tree, batch) — identical at any thread or
// shard count.
// An inserted vertex is a size-1 region of its own outside the index, joined
// to the tree (or inserted vertex) at the far end of each edge it still has
// at batch end, the way a surviving cross insert joins two trees. With no
// such edge it becomes a forest root directly; otherwise its whole region is
// recomputed, whatever the prediction, its new ids listed in
// Component::new_vertices. So the skeleton and the rounds never meet an id
// the pre-batch index does not cover.
// Measured (EXPERIMENTS.md E22; 4-vCPU Xeon, Release, one thread): 80
// batches of epoch_period updates per stream; speedup of the total
// apply_batch time over the cap-off replay at each ratio, medians of three,
// and the share of batches the cap took at 0.5. Two cap-off replays differ
// by 0.92-1.21x: that is the noise floor.
//   stream             0.25   0.5    1.0    1.5    2.0    capped at 0.5
//   read_heavy         2.45   2.37   1.57   1.35   1.07   74%
//   insert_churn       0.99   0.99   0.98   0.92   1.01   49%
//   adversarial_star   2.08   1.64   1.76   1.93   1.03   24%
//   social_mix         1.01   1.09   1.07   1.02   1.13   64%
//   dynamic_map        2.86   2.52   2.71   2.73   2.63   100%
//   map_churn          2.42   2.77   2.42   2.79   2.82   100%
//   social_churn       1.02   1.21   1.03   0.91   0.94   59%
// read_heavy falls off from 1.0 up and adversarial_star at 2.0; the maps
// are flat; the rest stays inside the noise floor. 0.5 sits in the flat
// part for every stream.
inline constexpr double kRecomputeWorkRatio = 0.5;

struct BatchReduction {
  // Edge-connected groups of pieces, ready for Rerooter::run_components;
  // with the work cap, capped components come first.
  std::vector<Component> components;
  // Parent assignments needing no rerooting: roots of detached pieces that
  // keep their internal structure (single-piece groups), and inserted
  // vertices left without an edge. The caller also nulls the slots of
  // deleted vertices.
  std::vector<std::pair<Vertex, Vertex>> direct;
};

// Each row the grouping sweep reads is charged to `cost` as one adjacency
// scan.
BatchReduction reduce_batch(const TreeIndex& cur, const Graph& g,
                            const BatchChanges& changes, bool work_cap = false,
                            pram::CostModel* cost = nullptr);

}  // namespace pardfs
