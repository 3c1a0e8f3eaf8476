#include "tree/validation.hpp"

#include <string>
#include <vector>

#include "tree/tree_index.hpp"

namespace pardfs {
namespace {

// Appends, not an operator+ chain: GCC 12 -Wrestrict flags that in Release.
std::string edge_str(Vertex u, Vertex v) {
  std::string out = "(";
  out.append(std::to_string(u)).append(", ").append(std::to_string(v)).append(")");
  return out;
}

ValidationResult fail(std::string reason) { return {false, std::move(reason)}; }

}  // namespace

ValidationResult validate_dfs_forest(const Graph& g, std::span<const Vertex> parent) {
  const Vertex cap = g.capacity();
  if (static_cast<Vertex>(parent.size()) != cap) {
    return fail("parent array size != graph capacity");
  }

  // 1. Forest structure: walk to a root from every vertex with cycle
  //    detection via a visited-epoch array (total O(n) amortized).
  std::vector<std::int8_t> state(static_cast<std::size_t>(cap), 0);  // 0 new, 1 active, 2 done
  for (Vertex v = 0; v < cap; ++v) {
    if (!g.is_alive(v)) continue;
    Vertex x = v;
    std::vector<Vertex> chain;
    while (state[static_cast<std::size_t>(x)] == 0) {
      state[static_cast<std::size_t>(x)] = 1;
      chain.push_back(x);
      const Vertex p = parent[static_cast<std::size_t>(x)];
      if (p == kNullVertex) break;
      if (!g.is_alive(p)) return fail("parent of " + std::to_string(x) + " is dead");
      if (!g.has_edge(x, p)) {
        return fail("tree edge " + edge_str(x, p) + " is not a graph edge");
      }
      if (state[static_cast<std::size_t>(p)] == 1) {
        return fail("cycle through vertex " + std::to_string(p));
      }
      x = p;
    }
    for (const Vertex c : chain) state[static_cast<std::size_t>(c)] = 2;
  }
  for (Vertex v = 0; v < cap; ++v) {
    if (!g.is_alive(v) && parent[static_cast<std::size_t>(v)] != kNullVertex) {
      return fail("dead vertex " + std::to_string(v) + " has a parent");
    }
  }

  // Index the forest (also computes roots / ancestor relations).
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(cap), 0);
  for (Vertex v = 0; v < cap; ++v) alive[static_cast<std::size_t>(v)] = g.is_alive(v);
  TreeIndex index;
  index.build(parent, alive);

  // 2. Spanning: every graph edge must stay within one tree, and distinct
  //    trees must not be connected by any graph edge (together these say
  //    trees == connected components).
  for (Vertex u = 0; u < cap; ++u) {
    if (!g.is_alive(u)) continue;
    for (const Vertex v : g.neighbors(u)) {
      if (index.root_of(u) != index.root_of(v)) {
        return fail("edge " + edge_str(u, v) + " connects two different trees");
      }
    }
  }

  // 3. Every non-tree edge is a back edge.
  for (Vertex u = 0; u < cap; ++u) {
    if (!g.is_alive(u)) continue;
    for (const Vertex v : g.neighbors(u)) {
      if (u > v) continue;
      if (parent[static_cast<std::size_t>(u)] == v ||
          parent[static_cast<std::size_t>(v)] == u) {
        continue;  // tree edge
      }
      if (!index.is_back_edge(u, v)) {
        return fail("cross edge " + edge_str(u, v));
      }
    }
  }
  return {};
}

}  // namespace pardfs
