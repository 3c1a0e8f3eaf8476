// Euler-tour technique (Tarjan–Vishkin; paper Theorem 4).
//
// Computes, fully in parallel (work-efficient list ranking + scans):
// pre-order number, post-order number, depth (level) and subtree size
// (number of descendants) for every vertex of a rooted forest given as a
// parent array. O(n) work, O(log n)-depth shape (see list_ranking.hpp for
// the sublist walk's depth).
//
// TreeIndex builds its tables with a serial stack DFS: an index built on
// this construction never beat it by 1.2x up to n = 2^20 on 4 cores
// (EXPERIMENTS.md E28). This module is the paper's construction, the
// substrate its preprocessing bound (Theorem 4/10) rests on, pinned
// byte-identical to TreeIndex by tests/test_rebuild.cpp and
// tests/test_euler_tour.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.hpp"

namespace pardfs {

struct EulerTourResult {
  std::vector<std::int32_t> pre;    // -1 for vertices outside the forest
  std::vector<std::int32_t> post;   // -1 for vertices outside the forest
  std::vector<std::int32_t> depth;  // -1 for vertices outside the forest
  std::vector<std::int32_t> size;   // 0 for vertices outside the forest
};

// The vertex-sequence Euler tour on top of EulerTourResult — per tree of the
// forest, root first, then one vertex per directed tree edge (the entered
// vertex for a down edge, the parent for an up edge), trees concatenated in
// root-id order. Exactly the sequence TreeIndex's DFS emits for its
// Fischer–Heun LCA table. root_of is kNullVertex outside the forest.
struct EulerTourTables {
  EulerTourResult result;
  std::vector<Vertex> euler;             // length sum over trees of 2*size-1
  std::vector<std::int32_t> euler_depth; // depth of euler[i]
  std::vector<std::int32_t> first_pos;   // first tour occurrence; -1 outside
  std::vector<Vertex> root_of;
};

// parent[v] == kNullVertex: v is a root if alive (empty alive = all alive),
// otherwise v is skipped entirely.
EulerTourResult euler_tour(std::span<const Vertex> parent,
                           std::span<const std::uint8_t> alive = {});

// Same construction, additionally materializing the vertex tour (Theorem 4's
// full output).
EulerTourTables euler_tour_tables(std::span<const Vertex> parent,
                                  std::span<const std::uint8_t> alive = {});

}  // namespace pardfs
