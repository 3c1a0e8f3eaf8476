#include "core/adjacency_oracle.hpp"

#include <algorithm>

#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "util/check.hpp"

namespace pardfs {

void AdjacencyOracle::build(const Graph& g, const TreeIndex& base,
                            pram::CostModel* cost) {
  base_ = &base;
  base_capacity_ = base.capacity();
  cost_ = cost;
  PARDFS_CHECK_MSG(g.capacity() <= base.capacity(),
                   "base tree index must cover the graph");
  const std::size_t n = static_cast<std::size_t>(g.capacity());
  built_capacity_ = n;
  // Steady-state rebuild is allocation-free: every buffer below is resized
  // in place (shrink keeps capacity; same shape re-grows nothing). The
  // per-vertex extras keep their inner capacities too — assign() would
  // deallocate all of them each epoch.
  if (extras_.size() > n) extras_.resize(n);
  for (auto& ex : extras_) ex.clear();
  extras_.resize(n);
  has_extras_.assign(n, 0);
  has_deleted_.assign(n, 0);
  dead_.assign(n, 0);
  deleted_edges_.clear();
  patch_count_ = 0;

  // CSR build: parallel degree count, exclusive scan for bucket offsets,
  // then each bucket is filled and sorted independently. The scan total is
  // 2m, so the old serial total_work accumulation loop folds into it.
  count_scratch_.resize(n);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    const Vertex v = static_cast<Vertex>(sv);
    count_scratch_[sv] = g.is_alive(v) ? static_cast<std::uint32_t>(g.degree(v)) : 0;
  });
  sorted_offsets_.resize(n + 1);
  const std::uint64_t total_work =
      pram::exclusive_scan(count_scratch_, std::span(sorted_offsets_).first(n));
  PARDFS_CHECK_MSG(total_work <= UINT32_MAX,
                   "CSR offsets are 32-bit: graph exceeds 2^31 edges");
  sorted_offsets_[n] = static_cast<std::uint32_t>(total_work);
  sorted_data_.resize(total_work);
  sorted_posts_.resize(total_work);
  sort_scratch_.resize(total_work);
  pram::parallel_for_t(0, n, [&](std::size_t sv) {
    const Vertex v = static_cast<Vertex>(sv);
    if (!g.is_alive(v)) return;
    const auto nbrs = g.neighbors(v);
    // Sort packed (post, vertex) keys: one contiguous uint64 compare per
    // step instead of two dependent loads through base.post per comparison.
    // Posts are unique, so the order equals the old post-comparator order.
    std::uint64_t* bucket = sort_scratch_.data() + sorted_offsets_[sv];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      bucket[i] = (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(base.post(nbrs[i])))
                   << 32) |
                  static_cast<std::uint32_t>(nbrs[i]);
    }
    std::sort(bucket, bucket + nbrs.size());
    Vertex* data = sorted_data_.data() + sorted_offsets_[sv];
    std::int32_t* posts = sorted_posts_.data() + sorted_offsets_[sv];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      data[i] = static_cast<Vertex>(bucket[i] & 0xFFFFFFFFu);
      posts[i] = static_cast<std::int32_t>(bucket[i] >> 32);
    }
  });
  if (cost_ != nullptr) {
    const std::uint64_t logn = n > 1 ? 64 - __builtin_clzll(n - 1) : 1;
    // CSR counting + scan: O(log n) depth, O(n + m) work (Theorem 4-style
    // processor allocation), then one parallel sort round (Theorem 7/8):
    // O(log n) depth, O(m log n) work.
    cost_->add_round(logn, static_cast<std::uint64_t>(n) + total_work);
    cost_->add_round(logn, total_work * logn);
  }
}

void AdjacencyOracle::clear_patches() {
  const std::size_t n = built_capacity_;
  if (extras_.size() > n) {
    extras_.resize(n);
    has_extras_.resize(n);
    has_deleted_.resize(n);
    dead_.resize(n);
  }
  for (auto& ex : extras_) ex.clear();
  std::fill(has_extras_.begin(), has_extras_.end(), 0);
  std::fill(has_deleted_.begin(), has_deleted_.end(), 0);
  std::fill(dead_.begin(), dead_.end(), 0);
  deleted_edges_.clear();
  patch_count_ = 0;
}

std::size_t AdjacencyOracle::heap_capacity_bytes() const {
  std::size_t total = sorted_offsets_.capacity() * sizeof(std::uint32_t) +
                      sorted_data_.capacity() * sizeof(Vertex) +
                      sorted_posts_.capacity() * sizeof(std::int32_t) +
                      extras_.capacity() * sizeof(std::vector<Vertex>) +
                      has_extras_.capacity() + has_deleted_.capacity() +
                      dead_.capacity() +
                      sort_scratch_.capacity() * sizeof(std::uint64_t) +
                      count_scratch_.capacity() * sizeof(std::uint32_t);
  for (const auto& ex : extras_) total += ex.capacity() * sizeof(Vertex);
  return total;
}

void AdjacencyOracle::ensure_patch_capacity(Vertex v) {
  const std::size_t need = static_cast<std::size_t>(v) + 1;
  if (extras_.size() < need) {
    extras_.resize(need);
    has_extras_.resize(need, 0);
    has_deleted_.resize(need, 0);
    dead_.resize(need, 0);
    // The sorted CSR stays frozen at built_capacity_; vertices beyond it
    // have no base neighbors (base_neighbors returns an empty span).
  }
}

void AdjacencyOracle::note_edge_inserted(Vertex u, Vertex v) {
  ensure_patch_capacity(std::max(u, v));
  const std::uint64_t key = undirected_key(u, v);
  if (deleted_edges_.erase(key) > 0) {
    // Re-insertion of a base edge: the sorted lists still hold it.
    // The base list is sorted by post order and posts are unique, so the
    // membership test is one binary search — keeps the patch O(log deg)
    // even on delete/re-insert churn at high-degree vertices.
    bool u_is_base_edge = false;
    if (is_base_vertex(u) && is_base_vertex(v)) {
      const auto posts = base_posts(u);
      const auto it = std::lower_bound(posts.begin(), posts.end(), base_->post(v));
      u_is_base_edge = it != posts.end() && *it == base_->post(v);
    }
    if (u_is_base_edge) {
      ++patch_count_;
      return;
    }
  }
  extras_[static_cast<std::size_t>(u)].push_back(v);
  extras_[static_cast<std::size_t>(v)].push_back(u);
  has_extras_[static_cast<std::size_t>(u)] = 1;
  has_extras_[static_cast<std::size_t>(v)] = 1;
  ++patch_count_;
}

bool AdjacencyOracle::has_current_edge(Vertex u, Vertex z) const {
  if (!edge_alive(u, z) || vertex_dead(u)) return false;
  if (is_base_vertex(u) && is_base_vertex(z)) {
    const auto posts = base_posts(u);
    const auto it = std::lower_bound(posts.begin(), posts.end(), base_->post(z));
    if (it != posts.end() && *it == base_->post(z)) return true;
  }
  const auto extras = extra_neighbor_list(u);
  return std::find(extras.begin(), extras.end(), z) != extras.end();
}

void AdjacencyOracle::note_edge_deleted(Vertex u, Vertex v) {
  ensure_patch_capacity(std::max(u, v));
  auto drop_extra = [this](Vertex a, Vertex b) {
    auto& ex = extras_[static_cast<std::size_t>(a)];
    const auto it = std::find(ex.begin(), ex.end(), b);
    if (it != ex.end()) {
      ex.erase(it);
      if (ex.empty()) has_extras_[static_cast<std::size_t>(a)] = 0;
      return true;
    }
    return false;
  };
  const bool was_extra = drop_extra(u, v);
  drop_extra(v, u);
  if (!was_extra) {
    deleted_edges_.insert(undirected_key(u, v));
    has_deleted_[static_cast<std::size_t>(u)] = 1;
    has_deleted_[static_cast<std::size_t>(v)] = 1;
  }
  ++patch_count_;
}

void AdjacencyOracle::note_vertex_inserted(Vertex v, std::span<const Vertex> neighbors) {
  ensure_patch_capacity(v);
  // The inserted vertex conceptually receives the highest post-order number
  // (paper §5.2): it never lies on a base segment, so its edges live purely
  // in the extra lists and it is queried via singleton segments.
  for (const Vertex u : neighbors) note_edge_inserted(u, v);
  ++patch_count_;
}

void AdjacencyOracle::note_vertex_deleted(Vertex v,
                                          std::span<const Vertex> former_neighbors) {
  ensure_patch_capacity(v);
  for (const Vertex u : former_neighbors) note_edge_deleted(u, v);
  dead_[static_cast<std::size_t>(v)] = 1;
  ++patch_count_;
}

AdjacencyOracle::Candidate AdjacencyOracle::better(Candidate a, Candidate b,
                                                   PathEnd end) {
  if (!a.valid()) return b;
  if (!b.valid()) return a;
  if (a.post != b.post) {
    const bool a_wins = end == PathEnd::kTop ? a.post > b.post : a.post < b.post;
    return a_wins ? a : b;
  }
  // Same target vertex: deterministic tie-break on source id.
  return a.source <= b.source ? a : b;
}

bool AdjacencyOracle::probe_up_window(Vertex u, PathSeg seg, std::int32_t& lo,
                                      std::int32_t& hi) const {
  if (!is_base_vertex(u) || !is_base_vertex(seg.top)) return false;
  if (!base_->is_ancestor(seg.top, u) || seg.top == u) return false;
  // Ancestors of u on [top..bottom] form the chain [lca(u, bottom)..top];
  // their posts fill [post(l), post(top)] within N(u) exclusively. The
  // window is located by binary search over the contiguous post keys.
  const Vertex l = base_->lca(u, seg.bottom);
  PARDFS_DCHECK(l != kNullVertex);
  lo = base_->post(l);
  hi = base_->post(seg.top);
  return true;
}

AdjacencyOracle::Candidate AdjacencyOracle::probe_up_pick(Vertex u,
                                                          std::size_t begin,
                                                          std::size_t finish,
                                                          PathEnd end) const {
  Candidate result;
  const auto posts = base_posts(u);
  const auto list = base_neighbors(u);
  std::uint64_t probes = 1;
  if (end == PathEnd::kTop) {
    for (std::size_t i = finish; i != begin;) {
      --i;
      ++probes;
      if (edge_deleted(u, list[i]) || vertex_dead(list[i])) continue;
      result = {posts[i], u, list[i]};
      break;
    }
  } else {
    for (std::size_t i = begin; i != finish; ++i) {
      ++probes;
      if (edge_deleted(u, list[i]) || vertex_dead(list[i])) continue;
      result = {posts[i], u, list[i]};
      break;
    }
  }
  if (cost_ != nullptr) cost_->add_query(probes);
  return result;
}

AdjacencyOracle::Candidate AdjacencyOracle::probe_up(Vertex u, PathSeg seg,
                                                     PathEnd end) const {
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  if (!probe_up_window(u, seg, lo, hi)) return {};
  const auto posts = base_posts(u);
  const std::size_t begin =
      static_cast<std::size_t>(std::lower_bound(posts.begin(), posts.end(), lo) -
                               posts.begin());
  const std::size_t finish =
      static_cast<std::size_t>(std::lower_bound(posts.begin(), posts.end(), hi + 1) -
                               posts.begin());
  return probe_up_pick(u, begin, finish, end);
}

AdjacencyOracle::Candidate AdjacencyOracle::probe_down(Vertex u, PathSeg seg,
                                                       PathEnd end) const {
  Candidate result;
  if (!is_base_vertex(u) || !is_base_vertex(seg.top)) return result;
  // Only relevant when u lies strictly above the whole segment.
  if (!base_->is_ancestor(u, seg.top) || u == seg.top) return result;
  const std::int32_t lo = base_->post(seg.bottom);
  const std::int32_t hi = base_->post(seg.top);
  const auto posts = base_posts(u);
  const auto list = base_neighbors(u);
  const std::size_t begin =
      static_cast<std::size_t>(std::lower_bound(posts.begin(), posts.end(), lo) -
                               posts.begin());
  const std::size_t finish =
      static_cast<std::size_t>(std::lower_bound(posts.begin(), posts.end(), hi + 1) -
                               posts.begin());
  std::uint64_t probes = 1;
  // Candidates in the window are inside T(seg.top); the chain test filters
  // the ones actually on [top..bottom].
  for (std::size_t i = begin; i != finish; ++i) {
    ++probes;
    const Vertex z = list[i];
    if (edge_deleted(u, z) || vertex_dead(z)) continue;
    if (!base_->is_ancestor(z, seg.bottom)) continue;  // off-chain branch
    result = better(result, {posts[i], u, z}, end);
  }
  if (cost_ != nullptr) cost_->add_query(probes);
  return result;
}

AdjacencyOracle::Candidate AdjacencyOracle::probe_extras(Vertex u, PathSeg seg,
                                                         PathEnd end) const {
  Candidate result;
  if (!has_extras(u)) return result;
  const auto& ex = extras_[static_cast<std::size_t>(u)];
  for (const Vertex z : ex) {
    if (vertex_dead(z) || edge_deleted(u, z)) continue;
    if (!on_segment(z, seg)) continue;
    result = better(result, {base_->post(z), u, z}, end);
  }
  if (cost_ != nullptr && !ex.empty()) cost_->add_query(ex.size());
  return result;
}

AdjacencyOracle::Candidate AdjacencyOracle::probe_all(Vertex u, PathSeg seg,
                                                      PathEnd end) const {
  if (vertex_dead(u)) return {};
  // Singleton segment holding an inserted vertex: only patched edges can
  // reach it; direct membership test over u's extras.
  if (seg.top == seg.bottom && !is_base_vertex(seg.top)) {
    Candidate result;
    if (has_extras(u)) {
      for (const Vertex z : extras_[static_cast<std::size_t>(u)]) {
        if (z == seg.top && !edge_deleted(u, z) && !vertex_dead(z)) {
          result = {0, u, z};
          break;
        }
      }
    }
    if (cost_ != nullptr) cost_->add_query(1);
    return result;
  }
  Candidate result = probe_up(u, seg, end);
  result = better(result, probe_down(u, seg, end), end);
  if (has_extras(u)) result = better(result, probe_extras(u, seg, end), end);
  return result;
}

void AdjacencyOracle::probe_batch(const Vertex* sources, std::size_t count,
                                  PathSeg seg, PathEnd end,
                                  Candidate* out) const {
  PARDFS_DCHECK(count <= simd::kBatchLanes);
  // Singleton segments holding an inserted vertex never reach the base
  // binary search; take probe_all's dedicated branch per lane.
  if (seg.top == seg.bottom && !is_base_vertex(seg.top)) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = probe_all(sources[i], seg, end);
    }
    return;
  }
  // Lane setup: each probe-up-eligible source contributes two search lanes
  // (window begin at lo, window end at hi + 1) over its CSR row of the one
  // shared sorted_posts_ array.
  std::uint32_t starts[2 * simd::kBatchLanes];
  std::uint32_t lens[2 * simd::kBatchLanes];
  std::int32_t needles[2 * simd::kBatchLanes];
  std::uint32_t found[2 * simd::kBatchLanes];
  std::size_t lane_src[simd::kBatchLanes];
  std::uint8_t dead[simd::kBatchLanes];
  std::size_t lanes = 0;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Candidate{};
    const Vertex u = sources[i];
    dead[i] = vertex_dead(u) ? 1 : 0;
    if (dead[i]) continue;  // probe_all returns {} without any probe
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    if (!probe_up_window(u, seg, lo, hi)) continue;
    const std::size_t su = static_cast<std::size_t>(u);
    const std::uint32_t start =
        su < built_capacity_ ? sorted_offsets_[su] : 0;
    const std::uint32_t len =
        su < built_capacity_ ? sorted_offsets_[su + 1] - start : 0;
    starts[2 * lanes] = start;
    lens[2 * lanes] = len;
    needles[2 * lanes] = lo;
    starts[2 * lanes + 1] = start;
    lens[2 * lanes + 1] = len;
    needles[2 * lanes + 1] = hi + 1;
    lane_src[lanes] = i;
    ++lanes;
    // Overlap the lanes' first binary-search touches: by the time the
    // kernel (and the picks after it) run, every lane's row midpoints are
    // in flight instead of serializing as dependent misses.
    const std::int32_t* row = sorted_posts_.data() + start;
    simd::prefetch(row + len / 2);
    simd::prefetch(row + len / 4);
    simd::prefetch(row + (3 * (std::size_t)len) / 4);
  }
  if (lanes > 0) {
    simd::lower_bound_batch(sorted_posts_.data(), starts, lens, needles, found,
                            2 * lanes);
    // The picks read sorted_data_ (a different array from the one the
    // searches walked) at the window edge; put every lane's first pick
    // load in flight before the first pick runs.
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::uint32_t edge =
          end == PathEnd::kTop
              ? found[2 * j + 1] - (found[2 * j + 1] > found[2 * j] ? 1 : 0)
              : found[2 * j];
      simd::prefetch(sorted_data_.data() + starts[2 * j] + edge);
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t i = lane_src[j];
      out[i] = probe_up_pick(sources[i], found[2 * j], found[2 * j + 1], end);
    }
  }
  // probe_down and probe_extras per lane, in probe_all's combine order.
  for (std::size_t i = 0; i < count; ++i) {
    if (dead[i]) continue;
    const Vertex u = sources[i];
    out[i] = better(out[i], probe_down(u, seg, end), end);
    if (has_extras(u)) out[i] = better(out[i], probe_extras(u, seg, end), end);
  }
}

std::optional<Edge> AdjacencyOracle::query_vertex(Vertex u, PathSeg seg,
                                                  PathEnd end) const {
  const Candidate c = probe_all(u, seg, end);
  if (!c.valid()) return std::nullopt;
  return Edge{c.source, c.target};
}

void AdjacencyOracle::query_vertex_batch(const Vertex* sources,
                                         std::size_t count, PathSeg seg,
                                         PathEnd end,
                                         std::optional<Edge>* out) const {
  Candidate lane[simd::kBatchLanes];
  for (std::size_t begin = 0; begin < count; begin += simd::kBatchLanes) {
    const std::size_t chunk = std::min(simd::kBatchLanes, count - begin);
    probe_batch(sources + begin, chunk, seg, end, lane);
    for (std::size_t i = 0; i < chunk; ++i) {
      out[begin + i] = lane[i].valid()
                           ? std::optional<Edge>(Edge{lane[i].source, lane[i].target})
                           : std::nullopt;
    }
  }
}

std::optional<Edge> AdjacencyOracle::query_sources(std::span<const Vertex> sources,
                                                   PathSeg seg, PathEnd end) const {
  // One logical processor per source; physically the sources advance in
  // kBatchLanes-wide blocks whose window searches share one dispatched
  // lower_bound pass. `better` is a total order on (post, source id), so
  // the block-at-a-time reduction returns the per-source reduction's winner
  // bit for bit.
  const std::size_t blocks =
      (sources.size() + simd::kBatchLanes - 1) / simd::kBatchLanes;
  const Candidate best = pram::parallel_reduce(
      std::size_t{0}, blocks, Candidate{},
      [&](std::size_t b) {
        Candidate lane[simd::kBatchLanes];
        const std::size_t begin = b * simd::kBatchLanes;
        const std::size_t chunk =
            std::min(simd::kBatchLanes, sources.size() - begin);
        probe_batch(sources.data() + begin, chunk, seg, end, lane);
        Candidate acc;
        for (std::size_t i = 0; i < chunk; ++i) acc = better(acc, lane[i], end);
        return acc;
      },
      [end](Candidate a, Candidate b) { return better(a, b, end); });
  if (!best.valid()) return std::nullopt;
  return Edge{best.source, best.target};
}

std::optional<Vertex> AdjacencyOracle::probe_into_subtree(Vertex u, Vertex r) const {
  if (vertex_dead(u)) return std::nullopt;
  Vertex best = kNullVertex;
  if (is_base_vertex(u) && is_base_vertex(r)) {
    // T(r)'s posts are exactly [post(r) - size(r) + 1, post(r)].
    const std::int32_t hi = base_->post(r);
    const std::int32_t lo = hi - base_->size(r) + 1;
    const auto posts = base_posts(u);
    const auto list = base_neighbors(u);
    const std::size_t begin = static_cast<std::size_t>(
        std::lower_bound(posts.begin(), posts.end(), lo) - posts.begin());
    const std::size_t finish = static_cast<std::size_t>(
        std::lower_bound(posts.begin(), posts.end(), hi + 1) - posts.begin());
    std::uint64_t probes = 1;
    for (std::size_t i = begin; i != finish; ++i) {
      ++probes;
      const Vertex z = list[i];
      if (edge_deleted(u, z) || vertex_dead(z)) continue;
      if (best == kNullVertex || z < best) best = z;
    }
    if (cost_ != nullptr) cost_->add_query(probes);
  }
  if (has_extras(u)) {
    for (const Vertex z : extras_[static_cast<std::size_t>(u)]) {
      if (vertex_dead(z) || edge_deleted(u, z)) continue;
      if (!is_base_vertex(z) || !base_->is_ancestor(r, z)) continue;
      if (best == kNullVertex || z < best) best = z;
    }
    if (cost_ != nullptr) cost_->add_query(extras_[static_cast<std::size_t>(u)].size());
  }
  if (best == kNullVertex) return std::nullopt;
  return best;
}

std::optional<Edge> AdjacencyOracle::query_segments(PathSeg source, PathSeg target,
                                                    PathEnd end) const {
  // Inserted-vertex singletons act as plain single searchers.
  if (source.top == source.bottom && !is_base_vertex(source.top)) {
    return query_vertex(source.top, target, end);
  }
  PARDFS_DCHECK(is_base_vertex(source.top) && is_base_vertex(source.bottom));
  // If no source vertex descends from a target vertex, source vertices are
  // valid searchers (their target-side neighbors are all their ancestors).
  // Otherwise the roles flip (paper §5.2's reversal); for two disjoint base
  // chains at least one direction is always valid.
  const bool source_descends =
      is_base_vertex(target.top) && base_->is_ancestor(target.top, source.bottom);
  // Materialize the walked chain once, then assign one logical processor per
  // chain vertex (Theorem 8's processor allocation) and reduce with the same
  // deterministic total order the old serial walk used — `better` is total
  // on (post, source id), so the result is order-independent.
  const PathSeg walked = source_descends ? target : source;
  std::vector<Vertex> chain;
  chain.reserve(static_cast<std::size_t>(base_->depth(walked.bottom) -
                                         base_->depth(walked.top)) +
                1);
  for (Vertex v = walked.bottom;; v = base_->parent(v)) {
    chain.push_back(v);
    // Warm each chain vertex's CSR row while the walk is still chasing
    // parent pointers: the probe pass below revisits them in this order.
    prefetch_adjacency(v);
    if (v == walked.top) break;
  }
  if (!source_descends) {
    return query_sources(chain, target, end);
  }
  // Flipped: every target-chain vertex searches over the source chain (any
  // hit counts); keep the hit nearest the requested end of the target by
  // rekeying each hit with its target vertex's post.
  const Candidate best = pram::parallel_reduce(
      std::size_t{0}, chain.size(), Candidate{},
      [&](std::size_t i) {
        const Vertex q = chain[i];
        const Candidate hit = probe_all(q, source, PathEnd::kTop);
        if (!hit.valid()) return Candidate{};
        return Candidate{base_->post(q), hit.target, q};
      },
      [end](Candidate a, Candidate b) { return better(a, b, end); });
  if (!best.valid()) return std::nullopt;
  return Edge{best.source, best.target};
}

}  // namespace pardfs
