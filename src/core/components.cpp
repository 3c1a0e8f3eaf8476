#include "core/components.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace pardfs {

void OracleView::decompose(Vertex near, Vertex far, std::vector<CurSeg>& out) const {
  out.clear();
  if (identity_) {
    // Current tree == base tree: the path is base-monotone by construction.
    const bool near_is_top = cur_->is_ancestor(near, far);
    PARDFS_DCHECK(near_is_top || cur_->is_ancestor(far, near));
    out.push_back({near_is_top ? PathSeg{near, far} : PathSeg{far, near}, near_is_top});
    return;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(near)) << 32) |
      static_cast<std::uint32_t>(far);
  const auto [it, inserted] = decompose_cache_.try_emplace(key);
  if (inserted) decompose_uncached(near, far, it->second);
  out = it->second;
}

void OracleView::decompose_uncached(Vertex near, Vertex far,
                                    std::vector<CurSeg>& out) const {
  const std::vector<Vertex> verts = cur_->path_vertices(near, far);
  PARDFS_DCHECK(verts.front() == near && verts.back() == far);
  // Split into maximal base-monotone runs; inserted vertices (absent from
  // the base tree) become singleton segments (Theorem 9).
  const TreeIndex& base = oracle_->base();
  auto is_base = [&](Vertex v) { return oracle_->is_base_vertex(v); };
  std::size_t i = 0;
  while (i < verts.size()) {
    const Vertex start = verts[i];
    if (!is_base(start)) {
      out.push_back({PathSeg{start, start}, true});
      ++i;
      continue;
    }
    // Extend a run while consecutive vertices are connected by a base edge
    // and the base direction does not bend.
    std::size_t j = i;
    int direction = 0;  // 0 unknown, +1 descending in base, -1 ascending
    while (j + 1 < verts.size() && is_base(verts[j + 1])) {
      const Vertex a = verts[j];
      const Vertex b = verts[j + 1];
      int step;
      if (base.parent(b) == a) {
        step = +1;  // walking down in base
      } else if (base.parent(a) == b) {
        step = -1;  // walking up in base
      } else {
        break;  // not a base edge
      }
      if (direction != 0 && step != direction) break;  // bend
      direction = step;
      ++j;
    }
    const Vertex finish = verts[j];
    // direction +1 (or a single vertex): start is the base-ancestor end;
    // direction -1: finish is.
    if (direction >= 0) {
      out.push_back({PathSeg{start, finish}, true});
    } else {
      out.push_back({PathSeg{finish, start}, false});
    }
    i = j + 1;
  }
}

std::optional<Edge> OracleView::query_sources_over_segs(
    std::span<const Vertex> sources, const std::vector<CurSeg>& segs) const {
  for (const CurSeg& cs : segs) {
    const PathEnd end = cs.near_is_top ? PathEnd::kTop : PathEnd::kBottom;
    if (auto hit = oracle_->query_sources(sources, cs.seg, end)) return hit;
  }
  return std::nullopt;
}

std::optional<Edge> OracleView::query_piece(const Piece& src, Vertex near,
                                            Vertex far) const {
  std::vector<CurSeg> target;
  decompose(near, far, target);
  if (src.kind == PieceKind::kSubtree) {
    const auto span = cur_->subtree_span(src.root);
    // Role reversal when the current tree IS the base tree: the subtree is
    // one contiguous base post window, so each path vertex can probe INTO it
    // with a single binary search (probe_into_subtree). Walking the path
    // from the near end returns the same winner as the one-searcher-per-
    // subtree-vertex reduction — the first path vertex with a surviving
    // edge is the nearest-near target, and the probe's min-id endpoint is
    // the reduction's source-id tie-break — at O(path · log) instead of
    // O(|subtree| · log) probes. Flip only when the path is the short side.
    if (identity_ && oracle_->is_base_vertex(src.root) &&
        oracle_->is_base_vertex(near) && oracle_->is_base_vertex(far)) {
      const std::size_t path_len = static_cast<std::size_t>(
          std::abs(cur_->depth(near) - cur_->depth(far))) + 1;
      if (path_len < span.size()) {
        const bool near_is_top = cur_->is_ancestor(near, far);
        if (near_is_top) {
          for (Vertex q = near;;) {
            if (auto z = oracle_->probe_into_subtree(q, src.root)) {
              return Edge{*z, q};
            }
            if (q == far) break;
            q = cur_->child_toward(q, far);
          }
        } else {
          for (Vertex q = near;; q = cur_->parent(q)) {
            if (auto z = oracle_->probe_into_subtree(q, src.root)) {
              return Edge{*z, q};
            }
            if (q == far) break;
          }
        }
        return std::nullopt;
      }
    }
    return query_sources_over_segs(span, target);
  }
  // Path piece: decompose the source too; for each target segment (in
  // near-to-far order) take the best across source segments.
  std::vector<CurSeg> source;
  decompose(src.top, src.bottom, source);
  const TreeIndex& base = oracle_->base();
  for (const CurSeg& ts : target) {
    const PathEnd end = ts.near_is_top ? PathEnd::kTop : PathEnd::kBottom;
    std::optional<Edge> best;
    std::int32_t best_post = 0;
    for (const CurSeg& ss : source) {
      const auto hit = oracle_->query_segments(ss.seg, ts.seg, end);
      if (!hit) continue;
      const std::int32_t post =
          oracle_->is_base_vertex(hit->v) ? base.post(hit->v) : 0;
      const bool wins =
          !best ||
          (end == PathEnd::kTop ? post > best_post : post < best_post) ||
          (post == best_post && hit->u < best->u);
      if (wins) {
        best = hit;
        best_post = post;
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

std::optional<Edge> OracleView::query_vertex_over(Vertex u,
                                                  const std::vector<CurSeg>& segs) const {
  for (const CurSeg& cs : segs) {
    const PathEnd end = cs.near_is_top ? PathEnd::kTop : PathEnd::kBottom;
    if (auto hit = oracle_->query_vertex(u, cs.seg, end)) return hit;
  }
  return std::nullopt;
}

}  // namespace pardfs
