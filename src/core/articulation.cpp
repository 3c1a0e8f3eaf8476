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
  CutStructure out;
  out.is_articulation.assign(static_cast<std::size_t>(cap), 0);

  // low[i] = the smallest pre-order index a back edge reaches from the
  // subtree of the vertex in pre-order slot i. In a DFS forest every non-tree
  // edge joins an ancestor and a descendant, so the minimum over all of v's
  // neighbours but its parent needs no ancestor test: descendants sit at
  // pre(v) or later and never lower it. One sweep in reverse pre-order over
  // the live vertices: a slot is final when reached (its children pushed
  // theirs first), then pushes itself into its parent's slot. Comparing pre
  // indices answers as depths would: every endpoint that counts lies on the
  // vertex's ancestor chain or inside its subtree.
  const std::int32_t n = index.num_indexed();
  std::vector<std::int32_t> low(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) low[static_cast<std::size_t>(i)] = i;
  for (std::int32_t i = n - 1; i >= 0; --i) {
    const Vertex v = index.vertex_at_pre(i);
    const Vertex p = index.parent(v);
    std::int32_t lv = low[static_cast<std::size_t>(i)];
    for (const Vertex w : g.neighbors(v)) {
      if (w != p) lv = std::min(lv, index.pre(w));
    }
    if (p == kNullVertex) {
      // A root is an articulation point iff it has >= 2 children.
      if (index.children(v).size() >= 2) {
        out.is_articulation[static_cast<std::size_t>(v)] = 1;
      }
      continue;
    }
    const std::int32_t pp = index.pre(p);
    // Tree edge (p, v) is a bridge iff nothing in T(v) reaches above v.
    if (lv >= i) out.bridges.push_back({p, v});
    // Non-root p is an articulation point iff some child's subtree cannot
    // reach strictly above p.
    if (index.parent(p) != kNullVertex && lv >= pp) {
      out.is_articulation[static_cast<std::size_t>(p)] = 1;
    }
    std::int32_t& lp = low[static_cast<std::size_t>(pp)];
    lp = std::min(lp, lv);
  }
  // By child id, as callers (DfsSnapshot::is_bridge) search them.
  std::sort(out.bridges.begin(), out.bridges.end(),
            [](const Edge& a, const Edge& b) { return a.v < b.v; });
  return out;
}

}  // namespace pardfs
