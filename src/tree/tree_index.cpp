#include "tree/tree_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pardfs {

void TreeIndex::build(std::span<const Vertex> parent,
                      std::span<const std::uint8_t> alive, TreeBuildMode /*mode*/) {
  parent_.assign(parent.begin(), parent.end());
  roots_.clear();
  build_children_csr(alive);
  build_serial();
}

void TreeIndex::build_children_csr(std::span<const std::uint8_t> alive) {
  const std::size_t n = parent_.size();
  auto is_alive = [&](std::size_t v) { return alive.empty() || alive[v] != 0; };

  // Children CSR: count p's children at slot p + 2 and scan, so slot p + 1
  // holds p's begin. The fill scans ids in order, each bucket listing its
  // children by ascending id, and uses slot p + 1 as p's cursor: it ends
  // at p's end, which is p + 1's begin.
  child_start_.assign(n + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_alive(v)) continue;
    const Vertex p = parent_[v];
    if (p == kNullVertex) {
      roots_.push_back(static_cast<Vertex>(v));
    } else {
      PARDFS_DCHECK(is_alive(static_cast<std::size_t>(p)));
      ++child_start_[static_cast<std::size_t>(p) + 2];
    }
  }
  for (std::size_t i = 2; i <= n + 1; ++i) child_start_[i] += child_start_[i - 1];
  child_list_.resize(static_cast<std::size_t>(child_start_[n + 1]));
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_alive(v)) continue;
    const Vertex p = parent_[v];
    if (p != kNullVertex) {
      child_list_[static_cast<std::size_t>(
          child_start_[static_cast<std::size_t>(p) + 1]++)] = static_cast<Vertex>(v);
    }
  }
}

void TreeIndex::build_serial() {
  // Liveness is already folded into roots_ and the children CSR.
  const std::size_t n = parent_.size();
  tree_root_.assign(n, kNullVertex);
  depth_.assign(n, -1);
  size_.assign(n, 0);
  pre_.assign(n, -1);

  // Iterative DFS per root, children in CSR order, producing pre/depth/size
  // and writing each pre position's parent pre straight into the LCA table.
  order_by_pre_.resize(n);
  const std::span<std::int32_t> parent_pre = lca_.begin_build(n);

  std::int32_t pre_counter = 0;
  // Stack frames: (vertex, next-child-slot).
  auto& stack = stack_scratch_;
  stack.clear();
  for (const Vertex r : roots_) {
    stack.emplace_back(r, 0);
    depth_[static_cast<std::size_t>(r)] = 0;
    tree_root_[static_cast<std::size_t>(r)] = r;
    while (!stack.empty()) {
      auto& [v, slot] = stack.back();
      const std::size_t sv = static_cast<std::size_t>(v);
      if (slot == 0) {
        pre_[sv] = pre_counter;
        order_by_pre_[static_cast<std::size_t>(pre_counter)] = v;
        const Vertex p = parent_[sv];
        parent_pre[static_cast<std::size_t>(pre_counter)] =
            p == kNullVertex ? -1 : pre_[static_cast<std::size_t>(p)];
        ++pre_counter;
      }
      const auto kids = children(v);
      if (slot < static_cast<std::int32_t>(kids.size())) {
        const Vertex c = kids[static_cast<std::size_t>(slot)];
        ++slot;
        depth_[static_cast<std::size_t>(c)] = depth_[sv] + 1;
        tree_root_[static_cast<std::size_t>(c)] = r;
        stack.emplace_back(c, 0);
      } else {
        size_[sv] = 1;
        for (const Vertex c : kids) size_[sv] += size_[static_cast<std::size_t>(c)];
        stack.pop_back();
      }
    }
  }
  num_indexed_ = pre_counter;
  order_by_pre_.resize(static_cast<std::size_t>(pre_counter));
  lca_.finish_build(static_cast<std::size_t>(pre_counter));
}

std::size_t TreeIndex::heap_capacity_bytes() const {
  return parent_.capacity() * sizeof(Vertex) +
         tree_root_.capacity() * sizeof(Vertex) +
         depth_.capacity() * sizeof(std::int32_t) +
         size_.capacity() * sizeof(std::int32_t) +
         pre_.capacity() * sizeof(std::int32_t) +
         order_by_pre_.capacity() * sizeof(Vertex) +
         child_start_.capacity() * sizeof(std::int32_t) +
         child_list_.capacity() * sizeof(Vertex) +
         roots_.capacity() * sizeof(Vertex) + lca_.heap_capacity_bytes() +
         stack_scratch_.capacity() * sizeof(std::pair<Vertex, std::int32_t>);
}

Vertex TreeIndex::lca(Vertex u, Vertex v) const {
  PARDFS_DCHECK(in_forest(u) && in_forest(v));
  if (tree_root_[static_cast<std::size_t>(u)] != tree_root_[static_cast<std::size_t>(v)])
    return kNullVertex;
  if (u == v) return u;
  // The smallest parent pre after the earlier endpoint, up to the later one,
  // is the LCA's (lca.hpp).
  const std::int32_t pu = pre_[static_cast<std::size_t>(u)];
  const std::int32_t pv = pre_[static_cast<std::size_t>(v)];
  return order_by_pre_[static_cast<std::size_t>(
      lca_.range_min(std::min(pu, pv) + 1, std::max(pu, pv)))];
}

Vertex TreeIndex::child_toward(Vertex a, Vertex d) const {
  PARDFS_DCHECK(is_ancestor(a, d) && a != d);
  const auto kids = children(a);
  // Children are stored in increasing pre order; the one whose pre-interval
  // contains pre(d) is the unique child on the path to d.
  const std::int32_t target = pre_[static_cast<std::size_t>(d)];
  std::size_t lo = 0, hi = kids.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (pre_[static_cast<std::size_t>(kids[mid])] <= target)
      lo = mid;
    else
      hi = mid;
  }
  const Vertex c = kids[lo];
  PARDFS_DCHECK(is_ancestor(c, d));
  return c;
}

std::int32_t TreeIndex::path_length(Vertex u, Vertex v) const {
  const Vertex l = lca(u, v);
  PARDFS_DCHECK(l != kNullVertex);
  return depth_[static_cast<std::size_t>(u)] + depth_[static_cast<std::size_t>(v)] -
         2 * depth_[static_cast<std::size_t>(l)];
}

std::vector<Vertex> TreeIndex::path_vertices(Vertex from, Vertex to) const {
  // Hard check: walking a non-ancestor pair would run off the root.
  PARDFS_CHECK_MSG(is_ancestor(to, from) || is_ancestor(from, to),
                   "path_vertices endpoints must be ancestor-descendant");
  std::vector<Vertex> out;
  if (is_ancestor(to, from)) {
    for (Vertex v = from;; v = parent_[static_cast<std::size_t>(v)]) {
      out.push_back(v);
      if (v == to) break;
    }
  } else {
    for (Vertex v = to;; v = parent_[static_cast<std::size_t>(v)]) {
      out.push_back(v);
      if (v == from) break;
    }
    std::reverse(out.begin(), out.end());
  }
  return out;
}

bool TreeIndex::on_path(Vertex x, Vertex y, Vertex z) const {
  // x on path(y, z) iff x is an ancestor of exactly one of {y, z} and a
  // descendant of lca(y, z) — for ancestor-descendant paths this reduces to
  // the paper's check (LCA comparisons).
  const Vertex l = lca(y, z);
  if (l == kNullVertex) return false;
  if (!is_ancestor(l, x)) return false;
  return is_ancestor(x, y) || is_ancestor(x, z);
}

std::vector<Vertex> TreeIndex::tree_path(Vertex a, Vertex b) const {
  const Vertex l = lca(a, b);
  PARDFS_CHECK_MSG(l != kNullVertex, "tree_path endpoints in different trees");
  std::vector<Vertex> out;
  for (Vertex v = a;; v = parent_[static_cast<std::size_t>(v)]) {
    out.push_back(v);
    if (v == l) break;
  }
  std::vector<Vertex> down;
  for (Vertex v = b; v != l; v = parent_[static_cast<std::size_t>(v)]) {
    down.push_back(v);
  }
  out.insert(out.end(), down.rbegin(), down.rend());
  return out;
}

std::vector<Vertex> TreeIndex::subtree_vertices(Vertex v) const {
  PARDFS_DCHECK(in_forest(v));
  const std::int32_t lo = pre_[static_cast<std::size_t>(v)];
  const std::int32_t hi = lo + size_[static_cast<std::size_t>(v)];
  std::vector<Vertex> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (std::int32_t i = lo; i < hi; ++i) {
    out.push_back(order_by_pre_[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace pardfs
