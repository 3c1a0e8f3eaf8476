#include "tree/euler_tour.hpp"

#include <algorithm>

#include "pram/list_ranking.hpp"
#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "util/check.hpp"

namespace pardfs {
namespace {

// Directed-edge ids: for the tree edge between v and parent(v), the down
// edge (parent -> v) is 2*v and the up edge (v -> parent) is 2*v + 1. Roots
// own no edges.
constexpr std::uint32_t down_edge(Vertex v) { return 2u * static_cast<std::uint32_t>(v); }
constexpr std::uint32_t up_edge(Vertex v) { return 2u * static_cast<std::uint32_t>(v) + 1; }

}  // namespace

namespace {

// Shared construction: fills `r` always; when `tables` is non-null, also
// materializes the vertex-sequence tour (root-id tree order, exactly the
// serial DFS emission — see EulerTourTables).
void tour_impl(std::span<const Vertex> parent, std::span<const std::uint8_t> alive,
               EulerTourResult& r, EulerTourTables* tables) {
  const std::size_t n = parent.size();
  r.pre.assign(n, -1);
  r.post.assign(n, -1);
  r.depth.assign(n, -1);
  r.size.assign(n, 0);
  if (tables != nullptr) {
    tables->euler.clear();
    tables->euler_depth.clear();
    tables->first_pos.assign(n, -1);
    tables->root_of.assign(n, kNullVertex);
  }
  if (n == 0) return;

  auto is_alive = [&](std::size_t v) { return alive.empty() || alive[v] != 0; };

  // Children CSR (counting sort by parent) — also the edge ordering around
  // each vertex: children in id order, parent edge last.
  std::vector<std::int32_t> child_start(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (is_alive(v) && parent[v] != kNullVertex) {
      ++child_start[static_cast<std::size_t>(parent[v]) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) child_start[v + 1] += child_start[v];
  std::vector<Vertex> child_list(static_cast<std::size_t>(child_start[n]));
  {
    std::vector<std::int32_t> cursor(child_start.begin(), child_start.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      if (is_alive(v) && parent[v] != kNullVertex) {
        child_list[static_cast<std::size_t>(cursor[static_cast<std::size_t>(parent[v])]++)] =
            static_cast<Vertex>(v);
      }
    }
  }
  auto children = [&](Vertex v) -> std::span<const Vertex> {
    const auto s = static_cast<std::size_t>(child_start[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(child_start[static_cast<std::size_t>(v) + 1]);
    return {child_list.data() + s, e - s};
  };
  auto child_slot = [&](Vertex v) {
    // Position of v among its parent's children; child lists are sorted by
    // id because the counting sort scans ids in order.
    const auto kids = children(parent[static_cast<std::size_t>(v)]);
    const auto it = std::lower_bound(kids.begin(), kids.end(), v);
    return static_cast<std::size_t>(it - kids.begin());
  };

  // Euler circuit successor links. succ(down(v)): first child edge of v, or
  // up(v) if v is a leaf. succ(up(v)): down edge of v's next sibling, or
  // up(parent(v)), or list end when the parent is a root with no further
  // child (each tree's tour is an open list; disjoint trees give disjoint
  // lists, which list ranking handles directly).
  const std::size_t num_dir_edges = 2 * n;
  std::vector<std::uint32_t> succ(num_dir_edges, pram::kListEnd);
  std::vector<std::uint8_t> edge_used(num_dir_edges, 0);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    const Vertex v = static_cast<Vertex>(sv);
    if (!is_alive(sv) || parent[sv] == kNullVertex) return;
    edge_used[down_edge(v)] = 1;
    edge_used[up_edge(v)] = 1;
    const auto kids = children(v);
    succ[down_edge(v)] = kids.empty() ? up_edge(v) : down_edge(kids.front());
    const Vertex p = parent[sv];
    const auto siblings = children(p);
    const std::size_t slot = child_slot(v);
    if (slot + 1 < siblings.size()) {
      succ[up_edge(v)] = down_edge(siblings[slot + 1]);
    } else if (parent[static_cast<std::size_t>(p)] != kNullVertex) {
      succ[up_edge(v)] = up_edge(p);
    }
  });

  // Rank every directed edge (distance to its tour's tail) and find its
  // tour's head edge, down(first child of the root).
  std::vector<std::uint32_t> head;
  const std::vector<std::uint32_t> rank = pram::list_rank(succ, &head);

  // Per-tree tour length = rank of the head edge + 1; each vertex's root is
  // the parent of the vertex whose down edge heads its tour.
  std::vector<std::uint32_t> tour_len_of_root(n, 0);
  std::vector<Vertex> root_of(n);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    if (!is_alive(sv)) {
      root_of[sv] = kNullVertex;
    } else if (parent[sv] == kNullVertex) {
      root_of[sv] = static_cast<Vertex>(sv);
      const auto kids = children(static_cast<Vertex>(sv));
      if (!kids.empty()) tour_len_of_root[sv] = rank[down_edge(kids.front())] + 1;
    } else {
      root_of[sv] = parent[head[down_edge(static_cast<Vertex>(sv))] / 2];
    }
  });

  auto position = [&](std::uint32_t e, Vertex v) {
    const std::size_t root = static_cast<std::size_t>(root_of[static_cast<std::size_t>(v)]);
    return tour_len_of_root[root] - 1 - rank[e];
  };

  // Materialize per-tree tours into one global array using per-root offsets,
  // then prefix-count down edges to derive pre, post, depth and size.
  std::vector<std::uint32_t> root_offset(n + 1, 0);
  {
    std::vector<std::uint32_t> lens(n);
    pram::parallel_for_t(0, n, [&](std::size_t sv) { lens[sv] = tour_len_of_root[sv]; });
    pram::exclusive_scan(lens, std::span<std::uint32_t>(root_offset.data(), n));
    root_offset[n] = root_offset[n - 1] + tour_len_of_root[n - 1];
  }
  const std::size_t total = root_offset[n];
  std::vector<std::uint32_t> is_down(total, 0);
  std::vector<std::uint8_t> kind(total, 0);  // 0 unset, 1 down, 2 up
  std::vector<Vertex> edge_vertex(total, kNullVertex);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    const Vertex v = static_cast<Vertex>(sv);
    if (!edge_used[down_edge(v)]) return;
    const std::size_t root = static_cast<std::size_t>(root_of[sv]);
    const std::size_t base = root_offset[root];
    const std::size_t pd = base + position(down_edge(v), v);
    const std::size_t pu = base + position(up_edge(v), v);
    is_down[pd] = 1;
    kind[pd] = 1;
    edge_vertex[pd] = v;
    kind[pu] = 2;
    edge_vertex[pu] = v;
  });
  std::vector<std::uint32_t> down_before(total);
  pram::exclusive_scan(is_down, down_before);

  pram::parallel_for_t(0, total, [&](std::size_t i) {
    if (kind[i] != 1) return;
    const Vertex v = edge_vertex[i];
    const std::size_t root = static_cast<std::size_t>(root_of[static_cast<std::size_t>(v)]);
    const std::uint32_t base_down = down_before[root_offset[root]];
    const std::uint32_t downs = down_before[i] + 1 - base_down;  // incl. self
    const std::uint32_t ups =
        static_cast<std::uint32_t>(i + 1 - root_offset[root]) - downs;
    r.pre[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(down_before[i]) + 1;  // global; rebased below
    r.depth[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(downs - ups);
  });
  pram::parallel_for_t(0, total, [&](std::size_t i) {
    if (kind[i] != 2) return;
    const Vertex v = edge_vertex[i];
    const std::uint32_t ups_before =
        static_cast<std::uint32_t>(i) - down_before[i];  // global; rebased below
    r.post[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(ups_before);
    const std::size_t root = static_cast<std::size_t>(root_of[static_cast<std::size_t>(v)]);
    const std::size_t base = root_offset[root];
    const std::size_t pd = base + position(down_edge(v), v);
    // [pd..i] contains exactly the 2*size(v) directed edges of v's subtree.
    r.size[static_cast<std::size_t>(v)] = static_cast<std::int32_t>((i - pd + 1) / 2);
  });

  // Global pre/post numbering: offset each tree by the number of vertices in
  // earlier trees; the root of each tree occupies local pre 0 and local post
  // tree_size - 1.
  std::vector<std::uint32_t> tree_sizes(n, 0);
  for (std::size_t sv = 0; sv < n; ++sv) {
    if (is_alive(sv)) ++tree_sizes[static_cast<std::size_t>(root_of[sv])];
  }
  std::vector<std::uint32_t> tree_offset(n, 0);
  pram::exclusive_scan(tree_sizes, tree_offset);

  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    if (!is_alive(sv)) return;
    const std::size_t root = static_cast<std::size_t>(root_of[sv]);
    if (parent[sv] == kNullVertex) {
      r.pre[sv] = static_cast<std::int32_t>(tree_offset[root]);
      r.post[sv] = static_cast<std::int32_t>(tree_offset[root] + tree_sizes[root]) - 1;
      r.depth[sv] = 0;
      r.size[sv] = static_cast<std::int32_t>(tree_sizes[root]);
    } else {
      const std::uint32_t base_down = down_before[root_offset[root]];
      const std::uint32_t base_up =
          static_cast<std::uint32_t>(root_offset[root]) - base_down;
      r.pre[sv] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(r.pre[sv]) - base_down + tree_offset[root]);
      r.post[sv] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(r.post[sv]) - base_up + tree_offset[root]);
    }
  });

  if (tables != nullptr) {
    // Vertex-sequence tour: per tree 2*size-1 slots (root first, then the
    // entered vertex of each down edge and the parent of each up edge),
    // trees concatenated in root-id order — the serial DFS emission.
    std::vector<std::uint32_t> vseq_offset(n, 0);
    std::uint32_t vseq_total = 0;
    for (std::size_t sv = 0; sv < n; ++sv) {
      if (is_alive(sv) && parent[sv] == kNullVertex) {
        vseq_offset[sv] = vseq_total;
        vseq_total += 2 * tree_sizes[sv] - 1;
      }
    }
    tables->euler.assign(vseq_total, kNullVertex);
    tables->euler_depth.assign(vseq_total, 0);
    pram::parallel_for_t(0, n, [&](std::size_t sv) {
      if (!is_alive(sv)) return;
      const Vertex v = static_cast<Vertex>(sv);
      const std::size_t root = static_cast<std::size_t>(root_of[sv]);
      const std::uint32_t vo = vseq_offset[root];
      if (parent[sv] == kNullVertex) {
        tables->euler[vo] = v;
        tables->euler_depth[vo] = 0;
        tables->first_pos[sv] = static_cast<std::int32_t>(vo);
      } else {
        const std::size_t pd = vo + 1 + position(down_edge(v), v);
        const std::size_t pu = vo + 1 + position(up_edge(v), v);
        tables->euler[pd] = v;
        tables->euler_depth[pd] = r.depth[sv];
        tables->first_pos[sv] = static_cast<std::int32_t>(pd);
        const Vertex p = parent[sv];
        tables->euler[pu] = p;
        tables->euler_depth[pu] = r.depth[static_cast<std::size_t>(p)];
      }
    });
    tables->root_of.assign(root_of.begin(), root_of.end());
  }
}

}  // namespace

EulerTourResult euler_tour(std::span<const Vertex> parent,
                           std::span<const std::uint8_t> alive) {
  EulerTourResult r;
  tour_impl(parent, alive, r, nullptr);
  return r;
}

EulerTourTables euler_tour_tables(std::span<const Vertex> parent,
                                  std::span<const std::uint8_t> alive) {
  EulerTourTables t;
  tour_impl(parent, alive, t.result, &t);
  return t;
}

}  // namespace pardfs
