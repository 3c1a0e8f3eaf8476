#include "tree/tree_index.hpp"

#include <algorithm>
#include <atomic>

#include "pram/parallel.hpp"
#include "tree/euler_tour.hpp"
#include "util/check.hpp"

namespace pardfs {

void TreeIndex::build(std::span<const Vertex> parent,
                      std::span<const std::uint8_t> alive, TreeBuildMode mode) {
  parent_.assign(parent.begin(), parent.end());
  roots_.clear();

  const bool parallel = mode == TreeBuildMode::kParallel;
  build_children_csr(parent, alive, parallel);
  if (parallel) {
    build_parallel(parent, alive);
  } else {
    build_serial(alive);
  }
}

void TreeIndex::build_children_csr(std::span<const Vertex> parent,
                                   std::span<const std::uint8_t> alive,
                                   bool parallel) {
  const std::size_t n = parent.size();
  auto is_alive = [&](std::size_t v) { return alive.empty() || alive[v] != 0; };

  // Children CSR: counting + exclusive scan for offsets, then a fill. Both
  // paths produce children in ascending id per bucket — the serial path by
  // scanning ids in order, the parallel path by sorting each bucket after an
  // unordered atomic fill.
  child_start_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (!is_alive(v)) continue;
    const Vertex p = parent_[v];
    if (p == kNullVertex) {
      roots_.push_back(static_cast<Vertex>(v));
    } else {
      PARDFS_DCHECK(is_alive(static_cast<std::size_t>(p)));
      ++child_start_[static_cast<std::size_t>(p) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) child_start_[v + 1] += child_start_[v];
  child_list_.assign(static_cast<std::size_t>(child_start_[n]), kNullVertex);
  cursor_scratch_.assign(child_start_.begin(), child_start_.end() - 1);
  if (parallel && n > 0) {
    pram::parallel_for_t(0, n, [&](std::size_t v) {
      if (!is_alive(v)) return;
      const Vertex p = parent_[v];
      if (p == kNullVertex) return;
      const std::int32_t slot =
          std::atomic_ref<std::int32_t>(cursor_scratch_[static_cast<std::size_t>(p)])
              .fetch_add(1, std::memory_order_relaxed);
      child_list_[static_cast<std::size_t>(slot)] = static_cast<Vertex>(v);
    });
    pram::parallel_for_t(0, n, [&](std::size_t v) {
      const auto s = static_cast<std::size_t>(child_start_[v]);
      const auto e = static_cast<std::size_t>(child_start_[v + 1]);
      std::sort(child_list_.begin() + static_cast<std::ptrdiff_t>(s),
                child_list_.begin() + static_cast<std::ptrdiff_t>(e));
    });
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      if (!is_alive(v)) continue;
      const Vertex p = parent_[v];
      if (p != kNullVertex) {
        child_list_[static_cast<std::size_t>(
            cursor_scratch_[static_cast<std::size_t>(p)]++)] =
            static_cast<Vertex>(v);
      }
    }
  }
}

void TreeIndex::build_serial(std::span<const std::uint8_t> alive) {
  const std::size_t n = parent_.size();
  (void)alive;  // liveness is already folded into roots_ / child CSR
  tree_root_.assign(n, kNullVertex);
  depth_.assign(n, -1);
  size_.assign(n, 0);
  pre_.assign(n, -1);
  post_.assign(n, -1);

  // Iterative DFS per root, children in CSR order, producing pre/post/depth/
  // size and the Euler tour for LCA. The tour scratch holds the LCA table's
  // previous buffers (swapped back by the last lca_.build), so steady-state
  // rebuilds reuse their capacity.
  euler_scratch_.clear();
  euler_depth_scratch_.clear();
  euler_scratch_.reserve(2 * n);
  euler_depth_scratch_.reserve(2 * n);
  first_pos_scratch_.assign(n, -1);
  order_by_pre_.resize(n);
  order_by_post_.resize(n);

  std::int32_t pre_counter = 0, post_counter = 0;
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
        ++pre_counter;
        first_pos_scratch_[sv] = static_cast<std::int32_t>(euler_scratch_.size());
        euler_scratch_.push_back(v);
        euler_depth_scratch_.push_back(depth_[sv]);
      }
      const auto kids = children(v);
      if (slot < static_cast<std::int32_t>(kids.size())) {
        const Vertex c = kids[static_cast<std::size_t>(slot)];
        ++slot;
        depth_[static_cast<std::size_t>(c)] = depth_[sv] + 1;
        tree_root_[static_cast<std::size_t>(c)] = r;
        stack.emplace_back(c, 0);
      } else {
        post_[sv] = post_counter;
        order_by_post_[static_cast<std::size_t>(post_counter)] = v;
        ++post_counter;
        size_[sv] = 1;
        for (const Vertex c : kids) size_[sv] += size_[static_cast<std::size_t>(c)];
        stack.pop_back();
        if (!stack.empty()) {
          euler_scratch_.push_back(stack.back().first);
          euler_depth_scratch_.push_back(
              depth_[static_cast<std::size_t>(stack.back().first)]);
        }
      }
    }
  }
  num_indexed_ = pre_counter;
  order_by_pre_.resize(static_cast<std::size_t>(pre_counter));
  order_by_post_.resize(static_cast<std::size_t>(post_counter));
  lca_.build(euler_scratch_, euler_depth_scratch_, first_pos_scratch_);
}

void TreeIndex::build_parallel(std::span<const Vertex> parent,
                               std::span<const std::uint8_t> alive) {
  const std::size_t n = parent.size();
  // Theorem 4: Euler tour + list ranking yield pre/post/depth/size and the
  // vertex tour in O(log n) depth; the orderings are one parallel scatter.
  // The tour order equals the serial DFS emission (root-id tree order,
  // children ascending), so every table below is byte-identical to
  // build_serial's output. The member tables circulate through the tour
  // scratch (swap out, rebuild in place, swap back) so repeated parallel
  // builds reuse their capacity like the serial path does; only the tour
  // construction's internal temporaries remain per-call.
  EulerTourTables& t = tour_scratch_;
  t.result.pre.swap(pre_);
  t.result.post.swap(post_);
  t.result.depth.swap(depth_);
  t.result.size.swap(size_);
  t.root_of.swap(tree_root_);
  t.euler.swap(euler_scratch_);
  t.euler_depth.swap(euler_depth_scratch_);
  t.first_pos.swap(first_pos_scratch_);
  euler_tour_tables_into(parent, alive, t);
  pre_.swap(t.result.pre);
  post_.swap(t.result.post);
  depth_.swap(t.result.depth);
  size_.swap(t.result.size);
  tree_root_.swap(t.root_of);
  std::int32_t indexed = 0;
  for (const Vertex r : roots_) {
    indexed += size_[static_cast<std::size_t>(r)];
  }
  num_indexed_ = indexed;
  order_by_pre_.assign(static_cast<std::size_t>(indexed), kNullVertex);
  order_by_post_.assign(static_cast<std::size_t>(indexed), kNullVertex);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    const std::int32_t p = pre_[sv];
    if (p < 0) return;
    order_by_pre_[static_cast<std::size_t>(p)] = static_cast<Vertex>(sv);
    order_by_post_[static_cast<std::size_t>(post_[sv])] = static_cast<Vertex>(sv);
  });
  // Same vertex tour as the serial DFS: identical Fischer–Heun state (the
  // block fill inside is a parallel_for).
  euler_scratch_.swap(t.euler);
  euler_depth_scratch_.swap(t.euler_depth);
  first_pos_scratch_.swap(t.first_pos);
  lca_.build(euler_scratch_, euler_depth_scratch_, first_pos_scratch_);
}

std::size_t TreeIndex::heap_capacity_bytes() const {
  return parent_.capacity() * sizeof(Vertex) +
         tree_root_.capacity() * sizeof(Vertex) +
         depth_.capacity() * sizeof(std::int32_t) +
         size_.capacity() * sizeof(std::int32_t) +
         pre_.capacity() * sizeof(std::int32_t) +
         post_.capacity() * sizeof(std::int32_t) +
         order_by_pre_.capacity() * sizeof(Vertex) +
         order_by_post_.capacity() * sizeof(Vertex) +
         child_start_.capacity() * sizeof(std::int32_t) +
         child_list_.capacity() * sizeof(Vertex) +
         roots_.capacity() * sizeof(Vertex) + lca_.heap_capacity_bytes() +
         euler_scratch_.capacity() * sizeof(Vertex) +
         euler_depth_scratch_.capacity() * sizeof(std::int32_t) +
         first_pos_scratch_.capacity() * sizeof(std::int32_t) +
         cursor_scratch_.capacity() * sizeof(std::int32_t) +
         stack_scratch_.capacity() * sizeof(std::pair<Vertex, std::int32_t>) +
         tour_scratch_.result.pre.capacity() * sizeof(std::int32_t) +
         tour_scratch_.result.post.capacity() * sizeof(std::int32_t) +
         tour_scratch_.result.depth.capacity() * sizeof(std::int32_t) +
         tour_scratch_.result.size.capacity() * sizeof(std::int32_t) +
         tour_scratch_.euler.capacity() * sizeof(Vertex) +
         tour_scratch_.euler_depth.capacity() * sizeof(std::int32_t) +
         tour_scratch_.first_pos.capacity() * sizeof(std::int32_t) +
         tour_scratch_.root_of.capacity() * sizeof(Vertex);
}

Vertex TreeIndex::lca(Vertex u, Vertex v) const {
  PARDFS_DCHECK(in_forest(u) && in_forest(v));
  if (tree_root_[static_cast<std::size_t>(u)] != tree_root_[static_cast<std::size_t>(v)])
    return kNullVertex;
  return lca_.query(u, v);
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
