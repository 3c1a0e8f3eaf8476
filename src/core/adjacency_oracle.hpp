// The data structure D (paper §5.2, Theorems 8 and 9).
//
// For the *base* DFS tree T, every vertex stores its neighbors sorted by
// their post-order index in T. Because T is a DFS tree, all neighbors of a
// vertex are its ancestors or descendants, so the neighbors incident on an
// ancestor-descendant path of T occupy a contiguous post-order range — one
// binary search answers
//     Query(w, path(x, y)):  the edge from w incident on path(x, y)
//                            nearest a chosen end of the path.
// Subtree and path variants assign one logical processor per source vertex
// and reduce (Theorem 8). D answers path queries only: every other reader of
// adjacency (the rerooting engine's serial finish, grouping and attachment
// walk, the batch reduction) reads the Graph's rows (DESIGN.md §4).
//
// Multi-update support (Theorem 9): the oracle is *never rebuilt* in
// fault-tolerant mode. Instead it accepts patches:
//   * inserted edges/vertices live in small per-vertex "extra" lists,
//     scanned linearly (the O(k) term of Theorem 9);
//   * an inserted vertex is conceptually appended after all post-order
//     numbers; a query path containing it is decomposed so the inserted
//     vertex forms its own singleton segment;
//   * deleted edges/vertices are filtered while probing (the binary search
//     steps over at most k dead candidates).
//
// Directionality: a probe from u over segment [top..bottom] finds
//   (A) u's base neighbors that are ancestors of u on the segment — a pure
//       binary search, valid when top is an ancestor of u; and
//   (B) u's base neighbors that are descendants of u on the segment —
//       needed only after previous updates re-rooted parts of the tree
//       (fault-tolerant mode), where a queried source may sit *above* the
//       base segment. Candidates in the post window [post(bottom),
//       post(top)] are scanned with an O(1) on-chain filter. In
//       single-update mode case (B) never fires for base edges (the paper's
//       disjointness precondition holds in the base tree), so the pure
//       Theorem 8 bound applies; see DESIGN.md for the caveat in
//       fault-tolerant mode.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/graph.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace pardfs {

enum class PathEnd : std::uint8_t { kTop, kBottom };

// Inclusive ancestor-descendant chain of the *base* tree: `top` is an
// ancestor (or equal) of `bottom`.
struct PathSeg {
  Vertex top = kNullVertex;
  Vertex bottom = kNullVertex;
};

class AdjacencyOracle {
 public:
  AdjacencyOracle() = default;

  // Builds D over g and the base tree index (which must outlive this oracle
  // or be re-`build`()-built together with it). O(m log n) work; the cost
  // model records one O(log n)-deep sort round (Theorem 8).
  // CSR invariant: the sorted rows hold only base ancestor-descendant pairs
  // (probe_up_pick takes the first in-window entry unfiltered). Every edge of
  // g is one when `base` is a DFS forest of g. A graph mutated after `base`
  // was built may hold others; they enter as Theorem 9 insert patches
  // instead: the edges listed in `patches` (cross edges between base
  // vertices; duplicates allowed) and every edge at an id beyond
  // base.capacity(), each edge once. patch_count() stays 0: it counts the
  // note_* patches since the build.
  void build(const Graph& g, const TreeIndex& base, pram::CostModel* cost = nullptr,
             std::span<const Edge> patches = {});

  // Marks D stale and frees its patch lists. A stale oracle answers no
  // query; note_* calls only add to patch_count() (a caller's budget keeps
  // its meaning) until the next build(). The CSR buffers are kept for that
  // build to reuse.
  void invalidate();
  bool stale() const { return stale_; }

  // ---- Theorem 9 patches ---------------------------------------------------
  void note_edge_inserted(Vertex u, Vertex v);
  void note_edge_deleted(Vertex u, Vertex v);
  // Neighbors must be alive at call time. Assigns the new vertex a pseudo
  // post-order number above all existing ones.
  void note_vertex_inserted(Vertex v, std::span<const Vertex> neighbors);
  // `former_neighbors`: adjacency of v just before deletion.
  void note_vertex_deleted(Vertex v, std::span<const Vertex> former_neighbors);

  std::size_t patch_count() const { return patch_count_; }

  // Drops all Theorem 9 patches, restoring the as-built oracle (used by
  // DynamicDfs::reset_to_base, so a kNeverRebase engine answers independent
  // update batches). The edges build() held as patches stay.
  void clear_patches();

  // True if v existed at build time and is part of the base tree.
  bool is_base_vertex(Vertex v) const {
    return v >= 0 && v < base_capacity_ && base_->in_forest(v);
  }

  const TreeIndex& base() const { return *base_; }

  // ---- queries ---------------------------------------------------------—--
  // Among u's current graph neighbors lying on `seg`, the one nearest the
  // given end. Returns {u, y} with y on seg. `seg` may also be a singleton
  // holding an inserted vertex. O(log n + patches) probes.
  std::optional<Edge> query_vertex(Vertex u, PathSeg seg, PathEnd end) const;

  // Best edge over many searchers (one logical processor each; parallel
  // reduction, deterministic tie-breaking by (target post, source id)).
  // Sources are probed in simd::kBatchLanes-wide blocks: the probe-up window
  // searches of a whole block run through one dispatched
  // simd::lower_bound_batch pass (DESIGN.md §10) — the candidates, the
  // tie-breaks and the cost accounting are identical to per-source
  // query_vertex calls at every dispatch level.
  std::optional<Edge> query_sources(std::span<const Vertex> sources, PathSeg seg,
                                    PathEnd end) const;

  // Batched form of query_vertex: out[i] == query_vertex(sources[i], seg, end)
  // for every i < count (count may exceed simd::kBatchLanes; it is chunked).
  // This is the primitive query_sources reduces over, exposed for the
  // scalar≡SIMD differential suite and the probe microbench.
  void query_vertex_batch(const Vertex* sources, std::size_t count, PathSeg seg,
                          PathEnd end, std::optional<Edge>* out) const;

  // Edges between two disjoint base chains; the returned edge's endpoint on
  // `target` is nearest the given end of `target`. Internally searches from
  // whichever side is the descendant side (the paper's role reversal for
  // Query(path, path)). Returns {x in source, y in target}.
  std::optional<Edge> query_segments(PathSeg source, PathSeg target, PathEnd end) const;

  // Smallest-id endpoint of a current (non-deleted) edge from u into the
  // base subtree rooted at r, or nullopt. A base subtree is a contiguous
  // post-order window, so this is one binary search plus the usual patch
  // filtering — the O(1)-searcher primitive behind the role reversal for
  // Query(subtree, path) when the path is the cheaper side to walk.
  std::optional<Vertex> probe_into_subtree(Vertex u, Vertex r) const;

  // True iff the CSR arrays sit on simd::kAlign boundaries (the layout
  // invariant of DESIGN.md §10; pinned by tests).
  bool csr_aligned() const {
    return simd::is_aligned(sorted_offsets_.data()) &&
           simd::is_aligned(sorted_data_.data()) &&
           simd::is_aligned(sorted_posts_.data());
  }

 private:
  struct Candidate {
    // Ordering key: post index of the target endpoint (larger = nearer top).
    std::int32_t post = -1;
    Vertex source = kNullVertex;
    Vertex target = kNullVertex;
    bool valid() const { return target != kNullVertex; }
  };

  // Both endpoints of a deleted edge carry a flag, so the common case (no
  // deletions touch u or v) is two byte loads instead of a hash probe —
  // this sits under every probe and every adjacency enumeration. The flag
  // is conservative (left set on re-insertion); the hash gives the truth.
  bool touches_deleted(Vertex v) const {
    return static_cast<std::size_t>(v) < has_deleted_.size() &&
           has_deleted_[static_cast<std::size_t>(v)] != 0;
  }
  bool edge_deleted(Vertex u, Vertex v) const {
    return touches_deleted(u) && touches_deleted(v) &&
           deleted_edges_.contains(undirected_key(u, v));
  }
  bool vertex_dead(Vertex v) const {
    return static_cast<std::size_t>(v) < dead_.size() && dead_[static_cast<std::size_t>(v)];
  }
  bool on_segment(Vertex x, PathSeg seg) const {
    return is_base_vertex(x) && base_->is_ancestor(seg.top, x) &&
           base_->is_ancestor(x, seg.bottom);
  }
  void ensure_patch_capacity(Vertex v);

  // Direction (A): ancestors of u on seg (binary search over sorted list).
  Candidate probe_up(Vertex u, PathSeg seg, PathEnd end) const;
  // The scan-and-pick tail of probe_up once the window [begin, finish) into
  // u's CSR row is known — shared verbatim by the scalar path and the
  // batched path, so their candidates and cost accounting cannot diverge.
  Candidate probe_up_pick(Vertex u, std::size_t begin, std::size_t finish,
                          PathEnd end) const;
  // True iff probe_up would search for u over seg; fills the window bounds.
  bool probe_up_window(Vertex u, PathSeg seg, std::int32_t& lo,
                       std::int32_t& hi) const;
  // Direction (B): descendants of u on seg (windowed scan with chain filter).
  Candidate probe_down(Vertex u, PathSeg seg, PathEnd end) const;
  // Patched (inserted) edges of u restricted to seg.
  Candidate probe_extras(Vertex u, PathSeg seg, PathEnd end) const;
  Candidate probe_all(Vertex u, PathSeg seg, PathEnd end) const;
  // probe_all over up to simd::kBatchLanes sources sharing one (seg, end):
  // the probe-up window searches of all lanes (two lower_bounds each) run as
  // one dispatched simd::lower_bound_batch pass; the picks, probe_down and
  // probe_extras stay per-lane scalar. out[i] == probe_all(sources[i], ...).
  void probe_batch(const Vertex* sources, std::size_t count, PathSeg seg,
                   PathEnd end, Candidate* out) const;
  static Candidate better(Candidate a, Candidate b, PathEnd end);

  // Base neighbors of u ordered by base post index, flattened into CSR form
  // (offsets + one contiguous data array): the epoch rebuild is two parallel
  // passes plus per-bucket sorts instead of n vector reallocations, and a
  // probe's binary search runs over one cache line stream.
  std::span<const Vertex> base_neighbors(Vertex u) const {
    const std::size_t su = static_cast<std::size_t>(u);
    if (su >= built_capacity_) return {};
    return {sorted_data_.data() + sorted_offsets_[su],
            static_cast<std::size_t>(sorted_offsets_[su + 1] - sorted_offsets_[su])};
  }
  // Post index of each base neighbor, parallel to base_neighbors(u): probes
  // binary-search these contiguous keys directly instead of chasing
  // base_->post(z) through two indirections per comparison.
  std::span<const std::int32_t> base_posts(Vertex u) const {
    const std::size_t su = static_cast<std::size_t>(u);
    if (su >= built_capacity_) return {};
    return {sorted_posts_.data() + sorted_offsets_[su],
            static_cast<std::size_t>(sorted_offsets_[su + 1] - sorted_offsets_[su])};
  }
  bool has_extras(Vertex u) const {
    return static_cast<std::size_t>(u) < has_extras_.size() &&
           has_extras_[static_cast<std::size_t>(u)] != 0;
  }
  // Software prefetch of u's CSR row (data + posts + patch flag) for a
  // probe of u shortly. Pure hint: no observable effect.
  void prefetch_adjacency(Vertex u) const {
    const std::size_t su = static_cast<std::size_t>(u);
    if (su >= built_capacity_) return;
    const std::uint32_t off = sorted_offsets_[su];
    simd::prefetch(sorted_data_.data() + off);
    simd::prefetch(sorted_posts_.data() + off);
    if (su < has_extras_.size()) simd::prefetch(&has_extras_[su]);
  }

 public:
  // Sum of owned heap capacities (bytes). The steady-state rebuild reuses
  // every buffer, so a second build() of the same shape must leave this
  // unchanged — pinned by tests/test_rebuild.cpp.
  std::size_t heap_capacity_bytes() const;

 private:
  const TreeIndex* base_ = nullptr;
  Vertex base_capacity_ = 0;
  std::size_t built_capacity_ = 0;  // graph capacity at build time
  // The CSR triple is 32-byte aligned (simd::kAlign): the batched probe
  // kernel gathers from sorted_posts_, and the sweeps stream sorted_data_.
  simd::aligned_vector<std::uint32_t> sorted_offsets_;  // size built_capacity_ + 1
  simd::aligned_vector<Vertex> sorted_data_;
  simd::aligned_vector<std::int32_t> sorted_posts_;  // parallel to sorted_data_
  // extras_[u]: endpoints of edges inserted after the build (includes edges
  // of inserted vertices). Small: O(k) per Theorem 9's k <= log n updates.
  // has_extras_[u] mirrors !extras_[u].empty() so the per-probe fast path is
  // one byte load instead of a vector header dereference.
  std::vector<std::vector<Vertex>> extras_;
  std::vector<std::uint8_t> has_extras_;
  std::vector<std::uint8_t> has_deleted_;
  std::vector<std::uint8_t> dead_;
  std::unordered_set<std::uint64_t> deleted_edges_;
  simd::aligned_vector<std::uint64_t> sort_scratch_;   // (post, vertex) pairs, reused
  simd::aligned_vector<std::uint32_t> count_scratch_;  // degree counts, reused
  // The edges the last build() held as patches (its contract), which
  // clear_patches() restores.
  std::vector<Edge> held_edges_;
  std::size_t patch_count_ = 0;
  bool stale_ = true;  // never built, or invalidate()d since the last build
  mutable pram::CostModel* cost_ = nullptr;
};

}  // namespace pardfs
