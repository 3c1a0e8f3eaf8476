#include "core/articulation.hpp"

#include <algorithm>

#include "tree/tree_index.hpp"
#include "util/check.hpp"

namespace pardfs {

CutStructure find_cuts(const Graph& g, std::span<const Vertex> parent) {
  TreeIndex index;
  index.build(parent, g.alive());
  return find_cuts(g, index);
}

CutStructure find_cuts(const Graph& g, const TreeIndex& index) {
  const Vertex cap = g.capacity();
  PARDFS_CHECK_MSG(index.capacity() == cap, "find_cuts: index does not cover the graph");
  const auto parent = [&](Vertex v) { return index.parent(v); };
  CutStructure out;
  out.is_articulation.assign(static_cast<std::size_t>(cap), 0);

  // low[v] = min depth reachable from T(v) via one back edge; processed in
  // reverse pre-order so children are done before parents.
  std::vector<std::int32_t> low(static_cast<std::size_t>(cap), 0);
  const std::int32_t n_indexed = index.num_indexed();
  for (std::int32_t i = n_indexed - 1; i >= 0; --i) {
    const Vertex v = index.vertex_at_pre(i);
    std::int32_t lv = index.depth(v);
    for (const Vertex w : g.neighbors(v)) {
      if (parent(w) == v || parent(v) == w) {
        continue;  // tree edge
      }
      // Back edge: contributes the other endpoint's depth when it is an
      // ancestor of v.
      if (index.is_ancestor(w, v)) lv = std::min(lv, index.depth(w));
    }
    for (const Vertex c : index.children(v)) {
      lv = std::min(lv, low[static_cast<std::size_t>(c)]);
    }
    low[static_cast<std::size_t>(v)] = lv;
  }

  for (Vertex v = 0; v < cap; ++v) {
    if (!g.is_alive(v)) continue;
    const Vertex p = parent(v);
    if (p == kNullVertex) {
      // A root is an articulation point iff it has >= 2 children.
      if (index.children(v).size() >= 2) {
        out.is_articulation[static_cast<std::size_t>(v)] = 1;
      }
      continue;
    }
    // Tree edge (p, v) is a bridge iff nothing in T(v) reaches above v.
    if (low[static_cast<std::size_t>(v)] >= index.depth(v)) {
      out.bridges.push_back({p, v});
    }
    // Non-root p is an articulation point iff some child's subtree cannot
    // reach strictly above p.
    if (parent(p) != kNullVertex &&
        low[static_cast<std::size_t>(v)] >= index.depth(p)) {
      out.is_articulation[static_cast<std::size_t>(p)] = 1;
    }
  }
  return out;
}

}  // namespace pardfs
