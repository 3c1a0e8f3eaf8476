// Articulation points and bridges from a DFS forest (classic low-link).
//
// Used by the distributed DFS-forest maintenance (paper §6.2: each node
// stores the articulation points/bridges to decide which components form
// after a deletion) and by the network-resilience example. O(m + n + b log b)
// for b bridges: one sweep over the live vertices in reverse pre-order.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace pardfs {

struct CutStructure {
  std::vector<std::uint8_t> is_articulation;  // indexed by vertex
  std::vector<Edge> bridges;  // (parent, child) tree edges, ascending child id
};

class TreeIndex;

// `index` must index a DFS forest of g (cross edges would corrupt the low
// values). Callers that already hold the forest's index (the service
// publishes one per batch) pass it here and skip the O(n) rebuild.
CutStructure find_cuts(const Graph& g, const TreeIndex& index);

// Same, for a bare parent array: builds the index, then calls the above.
CutStructure find_cuts(const Graph& g, std::span<const Vertex> parent);

}  // namespace pardfs
