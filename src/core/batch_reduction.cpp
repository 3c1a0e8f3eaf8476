#include "core/batch_reduction.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"

namespace pardfs {
namespace {

std::int32_t piece_size(const TreeIndex& cur, const Piece& p) {
  if (p.kind == PieceKind::kSubtree) return cur.size(p.root);
  return cur.depth(p.bottom) - cur.depth(p.top) + 1;
}

// The work cap (see batch_reduction.hpp). Sums each change's predicted
// reroot work into the pre-batch tree it lands in, merges the trees a
// surviving insert joins into one region (a connected component of the
// updated graph, or several once deletions split it), and emits every region
// whose prediction reaches kRecomputeWorkRatio × its live vertex count, or
// that holds an inserted vertex with an edge, as one `recompute` component of
// whole trees and new ids. Returns the capped trees' roots, ascending.
// O(k log deg) from the pre-batch index, plus the inserted vertices' rows.
std::vector<Vertex> cap_trees(const TreeIndex& cur, const Graph& g,
                              const BatchChanges& changes,
                              const std::vector<std::uint8_t>& dead,
                              BatchReduction& out) {
  const auto is_dead = [&](Vertex v) { return dead[static_cast<std::size_t>(v)] != 0; };
  // Inserted vertices lie beyond the index; each is its own region.
  const auto is_new = [&](Vertex v) { return v >= cur.capacity(); };
  // One slot per touched tree or inserted vertex, in first-touch order, keyed
  // by tree root or by the new id (the two ranges are disjoint).
  std::vector<Vertex> roots;
  std::vector<std::int64_t> work;
  std::vector<std::int64_t> deaths;
  std::vector<std::uint8_t> forced;  // an inserted vertex with an edge
  std::unordered_map<Vertex, std::size_t> slot_of;
  const auto slot = [&](Vertex v) {
    const Vertex key = is_new(v) ? v : cur.root_of(v);
    const auto [it, fresh] = slot_of.try_emplace(key, roots.size());
    if (fresh) {
      roots.push_back(key);
      work.push_back(0);
      deaths.push_back(0);
      forced.push_back(0);
    }
    return it->second;
  };
  std::vector<std::pair<std::size_t, std::size_t>> joins;
  for (const auto& [p, c] : changes.cut_edges) {
    // A dead endpoint's children are charged once, by its deletion below.
    if (is_dead(p) || is_dead(c)) continue;
    work[slot(c)] += cur.size(c);
  }
  for (const Vertex v : changes.deleted_vertices) {
    const std::size_t t = slot(v);
    ++deaths[t];
    for (const Vertex c : cur.children(v)) {
      if (!is_dead(c)) work[t] += cur.size(c);
    }
  }
  for (const Edge& e : changes.inserted_edges) {
    if (is_dead(e.u) || is_dead(e.v) || !g.has_edge(e.u, e.v)) continue;
    const Vertex ru = cur.root_of(e.u);
    const Vertex rv = cur.root_of(e.v);
    const std::size_t t = slot(e.u);
    if (ru != rv) {
      joins.emplace_back(t, slot(e.v));
      work[t] += std::min(cur.size(ru), cur.size(rv));
    } else {
      const Vertex w = cur.lca(e.u, e.v);
      work[t] += std::min(cur.size(cur.child_toward(w, e.u)),
                          cur.size(cur.child_toward(w, e.v)));
    }
  }
  for (const Vertex x : changes.inserted_vertices) {
    if (!g.is_alive(x)) continue;
    const std::size_t t = slot(x);
    for (const Vertex w : g.neighbors(x)) {
      forced[t] = 1;
      joins.emplace_back(t, slot(w));
    }
    // No edge left: a forest root of its own, nothing to recompute.
    if (!forced[t]) out.direct.emplace_back(x, kNullVertex);
  }

  // Regions: trees and inserted vertices joined by surviving inserts.
  PieceUf uf(roots.size());
  for (const auto& [a, b] : joins) uf.unite(a, b);
  std::vector<std::int64_t> region_work(roots.size(), 0);
  std::vector<std::int64_t> region_live(roots.size(), 0);
  std::vector<std::uint8_t> region_forced(roots.size(), 0);
  for (std::size_t t = 0; t < roots.size(); ++t) {
    const std::size_t r = uf.find(t);
    region_work[r] += work[t];
    region_live[r] += is_new(roots[t]) ? 1 : cur.size(roots[t]) - deaths[t];
    region_forced[r] |= forced[t];
  }
  std::vector<Vertex> capped;
  std::vector<std::vector<Vertex>> members(roots.size());
  for (std::size_t t = 0; t < roots.size(); ++t) {
    const std::size_t r = uf.find(t);
    if (region_forced[r] ||
        (region_work[r] > 0 && static_cast<double>(region_work[r]) >=
                                   kRecomputeWorkRatio * region_live[r])) {
      members[r].push_back(roots[t]);
      if (!is_new(roots[t])) capped.push_back(roots[t]);
    }
  }
  for (std::size_t r = 0; r < roots.size(); ++r) {
    // A region with no live vertex left needs no component.
    if (members[r].empty() || region_live[r] == 0) continue;
    // Ascending, so the old roots come first and the new ids after them.
    std::sort(members[r].begin(), members[r].end());
    Component comp;
    comp.attach_parent = kNullVertex;
    comp.budget = static_cast<std::int32_t>(region_live[r]);
    comp.recompute = true;
    for (const Vertex root : members[r]) {
      if (is_new(root)) {
        comp.new_vertices.push_back(root);
      } else {
        comp.pieces.push_back(Piece::subtree(root));
      }
    }
    // No entry: serial_finish roots the component's first tree at its first
    // live vertex in piece pre-order, and restarts there after every split.
    out.components.push_back(std::move(comp));
  }
  std::sort(capped.begin(), capped.end());
  return capped;
}

}  // namespace

BatchReduction reduce_batch(const TreeIndex& cur, const OracleView& view,
                            const Graph& g, const BatchChanges& changes,
                            bool work_cap) {
  BatchReduction out;
  const auto cap = static_cast<std::size_t>(cur.capacity());
  PARDFS_CHECK_MSG(work_cap || changes.inserted_vertices.empty(),
                   "inserted vertices are recomputed: they need the work cap");

  // ---- lookup structures for the batch's deletions -------------------------
  std::vector<std::uint8_t> dead(cap, 0);
  for (const Vertex v : changes.deleted_vertices) {
    dead[static_cast<std::size_t>(v)] = 1;
  }
  std::unordered_set<std::uint64_t> cut;
  cut.reserve(changes.cut_edges.size() * 2);
  for (const auto& [p, c] : changes.cut_edges) cut.insert(undirected_key(p, c));
  const auto is_cut = [&](Vertex a, Vertex b) {
    return !cut.empty() && cut.contains(undirected_key(a, b));
  };

  // ---- the work cap: trees recomputed whole --------------------------------
  const std::vector<Vertex> capped_roots =
      work_cap ? cap_trees(cur, g, changes, dead, out) : std::vector<Vertex>{};
  const auto in_capped_tree = [&](Vertex v) {
    return !capped_roots.empty() &&
           std::binary_search(capped_roots.begin(), capped_roots.end(),
                              cur.root_of(v));
  };

  // ---- affected vertices (O(k) of them) ------------------------------------
  std::vector<Vertex> affected;
  const auto add_affected = [&](Vertex v) {
    if (v != kNullVertex && cur.in_forest(v) && !in_capped_tree(v)) {
      affected.push_back(v);
    }
  };
  for (const auto& [p, c] : changes.cut_edges) {
    add_affected(p);
    add_affected(c);
  }
  for (const Vertex v : changes.deleted_vertices) {
    add_affected(v);
    add_affected(cur.parent(v));
    for (const Vertex c : cur.children(v)) add_affected(c);
  }
  for (const Edge& e : changes.inserted_edges) {
    add_affected(e.u);
    add_affected(e.v);
  }
  if (affected.empty()) return out;

  // ---- skeleton S: ancestor closure of the affected set --------------------
  // Climbing stops at the first already-marked vertex, so the total walk is
  // bounded by |S| + |affected|.
  std::vector<std::uint8_t> in_s(cap, 0);
  std::vector<Vertex> skeleton;
  for (const Vertex a : affected) {
    for (Vertex v = a; v != kNullVertex && !in_s[static_cast<std::size_t>(v)];
         v = cur.parent(v)) {
      in_s[static_cast<std::size_t>(v)] = 1;
      skeleton.push_back(v);
    }
  }
  std::sort(skeleton.begin(), skeleton.end(),
            [&](Vertex a, Vertex b) { return cur.pre(a) < cur.pre(b); });

  // ---- chains of S ---------------------------------------------------------
  // An S vertex s is *attached* to its parent if both are alive and the tree
  // edge survives the batch. A chain continues from s into its unique
  // attached S child; deleted vertices, cut edges and branch points start new
  // chains. (Every parent of an S vertex is itself in S: S is ancestor
  // closed.)
  std::vector<std::int32_t> attached_count(cap, 0);
  std::vector<Vertex> attached_child(cap, kNullVertex);
  for (const Vertex s : skeleton) {
    const auto ss = static_cast<std::size_t>(s);
    if (dead[ss]) continue;
    for (const Vertex c : cur.children(s)) {
      const auto cs = static_cast<std::size_t>(c);
      if (dead[cs] || !in_s[cs] || is_cut(s, c)) continue;
      ++attached_count[ss];
      attached_child[ss] = c;
    }
  }
  const auto is_chain_head = [&](Vertex s) {
    const Vertex p = cur.parent(s);
    if (p == kNullVertex) return true;
    const auto ps = static_cast<std::size_t>(p);
    return dead[ps] != 0 || is_cut(p, s) || attached_count[ps] != 1;
  };

  std::vector<Piece> pieces;
  std::vector<std::int32_t> piece_of_s(cap, -1);  // S vertex -> its chain
  std::vector<Vertex> hang_from;                  // subtree piece -> S parent
  for (const Vertex s : skeleton) {
    if (dead[static_cast<std::size_t>(s)] || !is_chain_head(s)) continue;
    Vertex last = s;
    for (;;) {
      piece_of_s[static_cast<std::size_t>(last)] =
          static_cast<std::int32_t>(pieces.size());
      const auto ls = static_cast<std::size_t>(last);
      if (attached_count[ls] != 1) break;
      last = attached_child[ls];
    }
    pieces.push_back(Piece::path(s, last));
  }
  const std::size_t num_chains = pieces.size();
  // Subtrees hanging off S: no affected vertex inside (S is ancestor closed),
  // so their internal structure is untouched by the batch.
  for (const Vertex s : skeleton) {
    const auto ss = static_cast<std::size_t>(s);
    if (dead[ss]) continue;
    for (const Vertex c : cur.children(s)) {
      const auto cs = static_cast<std::size_t>(c);
      if (dead[cs] || in_s[cs] || is_cut(s, c)) continue;
      hang_from.push_back(s);
      pieces.push_back(Piece::subtree(c));
    }
  }

  // ---- group pieces into components of the updated graph -------------------
  PieceUf uf(pieces.size());
  std::size_t num_groups = pieces.size();
  const auto join = [&](std::size_t a, std::size_t b) {
    if (uf.unite(a, b)) --num_groups;
  };
  // Surviving tree edges: subtree -> the chain it hangs from, and chain head
  // -> its parent's chain (branch points).
  for (std::size_t i = num_chains; i < pieces.size(); ++i) {
    join(i, static_cast<std::size_t>(
                piece_of_s[static_cast<std::size_t>(hang_from[i - num_chains])]));
  }
  for (std::size_t i = 0; i < num_chains; ++i) {
    const Vertex h = pieces[i].top;
    const Vertex p = cur.parent(h);
    if (p == kNullVertex || dead[static_cast<std::size_t>(p)] || is_cut(p, h)) {
      continue;
    }
    join(i, static_cast<std::size_t>(piece_of_s[static_cast<std::size_t>(p)]));
  }
  // Inserted edges: both endpoints are affected, hence on chains. Skip edges
  // that did not survive the batch (endpoint died / edge re-deleted) and
  // edges of capped trees (both ends recomputed: cap_trees merges the trees
  // a surviving insert joins).
  for (const Edge& e : changes.inserted_edges) {
    if (dead[static_cast<std::size_t>(e.u)] || dead[static_cast<std::size_t>(e.v)]) {
      continue;
    }
    if (in_capped_tree(e.u) || !g.has_edge(e.u, e.v)) continue;
    const std::int32_t pu = piece_of_s[static_cast<std::size_t>(e.u)];
    const std::int32_t pv = piece_of_s[static_cast<std::size_t>(e.v)];
    PARDFS_CHECK_MSG(pu >= 0 && pv >= 0, "inserted endpoints must lie on S");
    join(static_cast<std::size_t>(pu), static_cast<std::size_t>(pv));
  }
  // Remaining connections are surviving non-tree edges of the pre-batch
  // forest. They are back edges, so their ancestor endpoint lies on S — on a
  // chain, since dead S vertices have no surviving edges. The PRAM
  // formulation is one batch of pairwise (piece, chain) D queries; serially
  // the same partition comes out of one sweep over the chains' current
  // adjacency (the oracle's patched lists ARE the updated graph): map every
  // neighbor back to its piece — chain vertices through piece_of_s, hanging
  // subtrees by binary search over their disjoint pre-order intervals — and
  // union the pair. The union-find partition is edge-set determined, so the
  // emitted components do not depend on the sweep order, and the sweep stops
  // at the first row end where one group remains.
  if (num_groups > 1) {
    std::vector<std::pair<std::int32_t, std::int32_t>> hang_by_pre;  // (pre, piece)
    hang_by_pre.reserve(pieces.size() - num_chains);
    for (std::size_t i = num_chains; i < pieces.size(); ++i) {
      hang_by_pre.emplace_back(cur.pre(pieces[i].root), static_cast<std::int32_t>(i));
    }
    std::sort(hang_by_pre.begin(), hang_by_pre.end());
    const auto piece_of = [&](Vertex z) -> std::int32_t {
      if (z < 0 || z >= cur.capacity()) return -1;
      const auto zs = static_cast<std::size_t>(z);
      if (in_s[zs]) return piece_of_s[zs];  // -1 for a deleted S vertex
      if (!cur.in_forest(z)) return -1;
      const std::int32_t pz = cur.pre(z);
      auto it = std::upper_bound(
          hang_by_pre.begin(), hang_by_pre.end(), pz,
          [](std::int32_t x, const auto& h) { return x < h.first; });
      if (it == hang_by_pre.begin()) return -1;
      --it;
      const Vertex r = pieces[static_cast<std::size_t>(it->second)].root;
      return pz < it->first + cur.size(r) ? it->second : -1;
    };
    const AdjacencyOracle& oracle = view.oracle();
    for (std::size_t j = 0; j < num_chains && num_groups > 1; ++j) {
      const Piece& chain = pieces[j];
      for (Vertex v = chain.bottom;; v = cur.parent(v)) {
        // The next chain vertex's adjacency row is a dependent pointer chase
        // away; issue its prefetch before sweeping v's row.
        if (v != chain.top) oracle.prefetch_adjacency(cur.parent(v));
        oracle.for_each_current_neighbor(v, [&](Vertex z) {
          if (num_groups == 1) return;  // the rest of the row is moot
          const std::int32_t i = piece_of(z);
          if (i >= 0 && static_cast<std::size_t>(i) != j) {
            join(j, static_cast<std::size_t>(i));
          }
        });
        if (num_groups == 1 || v == chain.top) break;
      }
    }
  }

  // ---- emit one component per group ----------------------------------------
  std::vector<std::int32_t> group_of(pieces.size(), -1);
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const std::size_t r = uf.find(i);
    if (group_of[r] < 0) {
      group_of[r] = static_cast<std::int32_t>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[r])].push_back(i);
  }
  for (const auto& group : groups) {
    if (group.size() == 1) {
      // Detached piece with no surviving edge elsewhere: it keeps its
      // internal parent links and its head becomes a forest root.
      out.direct.emplace_back(pieces[group.front()].head(), kNullVertex);
      continue;
    }
    Component comp;
    comp.attach_parent = kNullVertex;
    comp.entry_piece = -1;
    comp.budget = 0;
    comp.pieces.reserve(group.size());
    for (const std::size_t i : group) {
      const Piece& p = pieces[i];
      const Vertex head = p.head();
      comp.budget += piece_size(cur, p);
      if (comp.entry_piece < 0 || cur.depth(head) < cur.depth(comp.entry) ||
          (cur.depth(head) == cur.depth(comp.entry) && head < comp.entry)) {
        comp.entry = head;
        comp.entry_piece = static_cast<std::int32_t>(comp.pieces.size());
      }
      comp.pieces.push_back(p);
    }
    out.components.push_back(std::move(comp));
  }
  return out;
}

}  // namespace pardfs
