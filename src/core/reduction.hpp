// The reduction algorithm (paper §3, Theorem 2/11): any single graph update
// reduces to independently rerooting disjoint subtrees of the current DFS
// forest, via O(1) sets of independent queries on D plus LCA work.
//
// The virtual super root of §2 stays implicit: a component with no real edge
// to the query path simply becomes (or stays) a tree root of the forest —
// exactly the behavior the dummy root's phantom edges would produce, without
// polluting D with O(n) entries.
//
// Call protocol (enforced by DynamicDfs::apply, their only caller in src/):
// the oracle must already be patched with the update, the graph must already
// be mutated, and the tree index must still describe the PRE-update forest.
#pragma once

#include <vector>

#include "core/components.hpp"
#include "core/rerooter.hpp"
#include "graph/graph.hpp"

namespace pardfs {

struct ReductionResult {
  std::vector<RerootRequest> reroots;
  // Direct parent assignments needing no rerooting (detached components
  // keeping their structure; the inserted vertex itself).
  std::vector<std::pair<Vertex, Vertex>> direct;  // (vertex, parent-or-null)
};

// Deletion of tree edge (parent_side, child_side) where parent_side is the
// current parent of child_side. Non-tree deletions need no reduction.
ReductionResult reduce_delete_tree_edge(const TreeIndex& cur, const OracleView& view,
                                        Vertex parent_side, Vertex child_side);

// Insertion of edge (u, v) that is not a back edge of the current forest.
ReductionResult reduce_insert_edge(const TreeIndex& cur, Vertex u, Vertex v);

// Deletion of vertex v (children / parent captured before the graph mutated).
ReductionResult reduce_delete_vertex(const TreeIndex& cur, const OracleView& view,
                                     Vertex v, std::span<const Vertex> children,
                                     Vertex former_parent);

// Insertion of vertex `v` with the given neighbor set.
ReductionResult reduce_insert_vertex(const TreeIndex& cur, Vertex v,
                                     std::span<const Vertex> neighbors);

}  // namespace pardfs
