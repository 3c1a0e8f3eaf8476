#include "core/dynamic_dfs.hpp"

#include <algorithm>
#include <mutex>
#include <string_view>
#include <utility>

#include "baseline/static_dfs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace pardfs {
namespace {

constexpr std::string_view kPhaseFamily = "pardfs_update_phase_us";

// One update-path phase histogram (DESIGN.md §11) of an engine: the
// process-wide unlabeled series when `shard` is empty, else its
// shard="<shard>" twin. Recorded in raw nanoseconds, exported in
// microseconds; one sample per scoped phase entry, so quantiles are
// per-phase-execution latencies and sums reproduce the cumulative
// UpdatePhaseBreakdown. The service layer owns the two remaining pipeline
// phases (queue_wait, publish) under the same metric name. The reference is
// stable forever.
obs::Histogram& phase_series(std::string_view phase, std::string_view shard) {
  return obs::Registry::global().histogram(
      kPhaseFamily,
      obs::shard_labels("phase=\"" + std::string(phase) + '"', shard), 1e-3);
}

// Mirror of the per-run RerootStats counters (paper Theorem 3/4 evidence)
// into registry counters, bumped after every engine pass. The struct stays
// the deterministic per-run record (tests fingerprint it); the registry
// series are its process-wide running totals.
void mirror_reroot_stats(const RerootStats& s) {
  static obs::Registry& reg = obs::Registry::global();
  static obs::Counter& rounds = reg.counter("pardfs_reroot_rounds_total");
  static obs::Counter& query_batches =
      reg.counter("pardfs_reroot_query_batches_total");
  static obs::Counter& components =
      reg.counter("pardfs_reroot_components_total");
  static obs::Counter& vertices =
      reg.counter("pardfs_reroot_vertices_traversed_total");
  static obs::Counter& disintegrating =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"disintegrating\"");
  static obs::Counter& path_halving =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"path_halving\"");
  static obs::Counter& disconnecting =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"disconnecting\"");
  static obs::Counter& heavy_l =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"heavy_l\"");
  static obs::Counter& heavy_p =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"heavy_p\"");
  static obs::Counter& heavy_r =
      reg.counter("pardfs_reroot_traversals_total", "kind=\"heavy_r\"");
  static obs::Counter& fallbacks = reg.counter("pardfs_reroot_fallbacks_total");
  static obs::Counter& serial_finishes =
      reg.counter("pardfs_reroot_serial_finishes_total");
  static obs::Counter& grouping_scanned =
      reg.counter("pardfs_reroot_grouping_scanned_total");
  static obs::Counter& recomputes =
      reg.counter("pardfs_update_recompute_total");
  if (s.global_rounds != 0) rounds.add(s.global_rounds);
  if (s.query_batches != 0) query_batches.add(s.query_batches);
  if (s.components_processed != 0) components.add(s.components_processed);
  if (s.vertices_traversed != 0) vertices.add(s.vertices_traversed);
  if (s.disintegrating != 0) disintegrating.add(s.disintegrating);
  if (s.path_halving != 0) path_halving.add(s.path_halving);
  if (s.disconnecting != 0) disconnecting.add(s.disconnecting);
  if (s.heavy_l != 0) heavy_l.add(s.heavy_l);
  if (s.heavy_p != 0) heavy_p.add(s.heavy_p);
  if (s.heavy_r != 0) heavy_r.add(s.heavy_r);
  if (s.fallbacks != 0) fallbacks.add(s.fallbacks);
  if (s.serial_finishes != 0) serial_finishes.add(s.serial_finishes);
  if (s.grouping_scanned != 0) grouping_scanned.add(s.grouping_scanned);
  if (s.recomputes != 0) recomputes.add(s.recomputes);
}

}  // namespace

// Every index the engine builds is owned by a shared_ptr whose deleter
// returns the object here instead of freeing it, whichever thread drops the
// last reference; the deleters share ownership of the list, so it outlives
// the engine. Holds at most kCap indices; a release beyond that frees.
struct DynamicDfs::IndexReturnList {
  static constexpr std::size_t kCap = 2;
  std::mutex mu;
  std::vector<std::unique_ptr<TreeIndex>> free;
};

DynamicDfs::DynamicDfs(Graph graph, RerootStrategy strategy,
                       pram::CostModel* cost, int num_threads,
                       std::int32_t serial_cutoff, std::string obs_shard,
                       std::size_t epoch_period)
    : graph_(std::move(graph)),
      returned_(std::make_shared<IndexReturnList>()),
      strategy_(strategy),
      cost_(cost),
      num_threads_(num_threads),
      serial_cutoff_(serial_cutoff),
      requested_period_(epoch_period) {
  // Eager registration: all four phase series of this instance appear (at
  // zero) on a metrics page even before the first update touches them.
  patch_hist_ = &phase_series("patch", obs_shard);
  reroot_hist_ = &phase_series("reroot", obs_shard);
  index_rebuild_hist_ = &phase_series("index_rebuild", obs_shard);
  rebase_hist_ = &phase_series("rebase", obs_shard);
  parent_ = static_dfs(graph_);
  rebuild_index();
  close_epoch(/*build_now=*/true);
}

std::int32_t DynamicDfs::engine_cutoff() const {
  return serial_cutoff_ < 0 ? Rerooter::default_serial_cutoff(index_->capacity())
                            : serial_cutoff_;
}

std::shared_ptr<TreeIndex> DynamicDfs::acquire_index_slot() {
  std::unique_ptr<TreeIndex> slot;
  {
    std::lock_guard lock(returned_->mu);
    if (!returned_->free.empty()) {
      slot = std::move(returned_->free.back());
      returned_->free.pop_back();
    }
  }
  if (slot == nullptr) slot = std::make_unique<TreeIndex>();
  // The last release, on whichever thread, hands the object back under the
  // list's mutex: a reader's reads of the index happen before the writer's
  // next acquire of it, so rebuilding into its buffers races with nobody.
  return std::shared_ptr<TreeIndex>(
      slot.release(), [list = returned_](TreeIndex* index) {
        std::unique_ptr<TreeIndex> owned(index);
        std::lock_guard lock(list->mu);
        if (list->free.size() < IndexReturnList::kCap) {
          list->free.push_back(std::move(owned));
        }
      });
}

void DynamicDfs::rebuild_index() {
  obs::ScopedPhase timer(*index_rebuild_hist_, "index_rebuild");
  parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
  std::shared_ptr<TreeIndex> next = acquire_index_slot();
  next->build(parent_, graph_.alive());
  // The outgoing index returns to the list once its last holder (D's base,
  // a published snapshot) lets go.
  index_ = std::move(next);
  ++index_rebuilds_;
}

void DynamicDfs::close_epoch(bool build_now) {
  structural_since_rebase_ = 0;
  ++epoch_rebuilds_;
  const auto n = static_cast<std::uint64_t>(graph_.num_vertices());
  epoch_period_ = requested_period_ != 0 ? requested_period_
                  : n > 1 ? static_cast<std::size_t>(64 - __builtin_clzll(n - 1))
                          : 1;
  // Theorem 9 budgets k <= log n *updates*; one structural update can emit
  // several patches (a vertex insert emits 1 + degree), so the patch cap
  // carries a constant slack over the epoch length. Saturates: a
  // kNeverRebase engine has no budget.
  patch_budget_ = epoch_period_ > kNeverRebase / 4 ? kNeverRebase : 4 * epoch_period_;
  // D goes stale with the epoch: the next traversal that queries it builds
  // it over the graph of that moment (build_d). The oracle keeps counting
  // the epoch's patches meanwhile.
  oracle_.invalidate();
  base_index_.reset();
  patches_before_build_ = 0;
  if (build_now || requested_period_ == kNeverRebase) build_d();
}

void DynamicDfs::build_d(std::span<const Edge> patches) {
  obs::ScopedPhase timer(*rebase_hist_, "rebase");
  // index_ already describes the forest the coming queries traverse: alias
  // it as D's base tree (it is immutable — rebuild_index() swaps in a new
  // object rather than mutating) and build D over it. No O(n) copy. The
  // build zeroes the oracle's count; the epoch's total carries on here.
  patches_before_build_ += oracle_.patch_count();
  base_index_ = index_;
  oracle_.build(graph_, *base_index_, cost_, patches);
  base_is_current_ = true;
  ++d_builds_;
  if (requested_period_ == kNeverRebase) base_graph_ = graph_;
}

void DynamicDfs::reset_to_base() {
  PARDFS_CHECK_MSG(requested_period_ == kNeverRebase,
                   "reset_to_base needs a kNeverRebase engine");
  oracle_.clear_patches();
  graph_ = base_graph_;
  const std::span<const Vertex> base = base_index_->parents();
  parent_.assign(base.begin(), base.end());
  structural_since_rebase_ = 0;
  base_is_current_ = true;
  last_stats_ = {};
  rebuild_index();
}

void DynamicDfs::maybe_close_epoch() {
  if (structural_since_rebase_ >= epoch_period_ ||
      patches_before_build_ + oracle_.patch_count() > patch_budget_) {
    close_epoch(/*build_now=*/false);
  }
}

void DynamicDfs::prepare_update() {
  maybe_close_epoch();
  if (oracle_.stale()) build_d();
}

void DynamicDfs::finish_structural() {
  ++structural_since_rebase_;
  base_is_current_ = false;
  rebuild_index();
}

void DynamicDfs::execute(const ReductionResult& reduction, const OracleView& view) {
  // parent_ already holds the pre-update forest; reroots overwrite their
  // subtrees, direct assignments patch single slots. The view is shared
  // with the preceding reduction so its decompose memo spans the update.
  Rerooter engine(*index_, graph_, view, strategy_, cost_, num_threads_,
                  engine_cutoff());
  last_stats_ = engine.run(reduction.reroots, parent_);
  mirror_reroot_stats(last_stats_);
  for (const auto& [v, p] : reduction.direct) {
    parent_[static_cast<std::size_t>(v)] = p;
  }
}

UpdatePhaseBreakdown DynamicDfs::phase_breakdown() {
  // Unlabeled and shard-labeled series alike, matched by their phase label.
  // The service phases (queue_wait, publish) share the metric name but not
  // these phase labels, so the prefix match skips them.
  UpdatePhaseBreakdown b;
  for (const obs::Histogram* h : obs::Registry::global().histograms()) {
    if (h->name() != kPhaseFamily) continue;
    const std::string& l = h->labels();
    if (l.starts_with("phase=\"patch\"")) {
      b.patch_us += h->sum();
    } else if (l.starts_with("phase=\"reroot\"")) {
      b.reroot_us += h->sum();
    } else if (l.starts_with("phase=\"index_rebuild\"")) {
      b.index_rebuild_us += h->sum();
    } else if (l.starts_with("phase=\"rebase\"")) {
      b.rebase_us += h->sum();
    }
  }
  return b;
}

void DynamicDfs::pad_capacity(Vertex capacity) {
  if (capacity <= graph_.capacity()) return;
  graph_.pad_to(capacity);
  // Dead ids carry no adjacency and are never queried, so D needs no
  // patching; the index rebuild widens its arrays over the new id space so
  // range checks stay valid.
  rebuild_index();
}

DynamicDfs::ComponentTransfer DynamicDfs::extract_component(Vertex v) {
  PARDFS_CHECK_MSG(graph_.is_alive(v), "extract_component: vertex not alive");
  ComponentTransfer t;
  // The DFS forest's trees are exactly the connected components, so the
  // component of v is the subtree of its root: O(component), not a scan of
  // the id space. The transfer lists ids ascending.
  const std::span<const Vertex> tree = index_->subtree_span(index_->root_of(v));
  t.vertices.assign(tree.begin(), tree.end());
  std::sort(t.vertices.begin(), t.vertices.end());
  t.parent.reserve(t.vertices.size());
  for (const Vertex w : t.vertices) {
    t.parent.push_back(parent_[static_cast<std::size_t>(w)]);
  }
  t.rows = graph_.extract_component(t.vertices);
  for (const Vertex w : t.vertices) {
    parent_[static_cast<std::size_t>(w)] = kNullVertex;
  }
  // The component is gone: rebuild the current index over the survivors and
  // open a fresh epoch (D must not retain sorted lists or patches that
  // reference the extracted rows; it is rebuilt when next queried).
  rebuild_index();
  close_epoch(/*build_now=*/false);
  return t;
}

void DynamicDfs::adopt_component(ComponentTransfer t) {
  if (!t.vertices.empty()) {
    graph_.pad_to(t.vertices.back() + 1);  // ids are ascending
  }
  graph_.adopt_component(t.vertices, std::move(t.rows));
  parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
  for (std::size_t i = 0; i < t.vertices.size(); ++i) {
    parent_[static_cast<std::size_t>(t.vertices[i])] = t.parent[i];
  }
  rebuild_index();
  close_epoch(/*build_now=*/false);
}

void DynamicDfs::insert_edge(Vertex u, Vertex v) {
  apply(GraphUpdate::insert_edge(u, v));
}

void DynamicDfs::delete_edge(Vertex u, Vertex v) {
  apply(GraphUpdate::delete_edge(u, v));
}

Vertex DynamicDfs::insert_vertex(std::span<const Vertex> neighbors) {
  return apply(GraphUpdate::insert_vertex({neighbors.begin(), neighbors.end()}));
}

void DynamicDfs::delete_vertex(Vertex v) { apply(GraphUpdate::delete_vertex(v)); }

void DynamicDfs::absorb(const GraphUpdate& op, bool structural, Vertex fresh,
                        BatchChanges& changes) {
  // Ids from `fresh` on were inserted by the open segment: the index does not
  // cover them, and their edges reach the reduction through the graph, not
  // `changes`.
  const bool tracked = op.u < fresh && op.v < fresh;
  switch (op.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      PARDFS_CHECK(graph_.add_edge(op.u, op.v));
      oracle_.note_edge_inserted(op.u, op.v);
      if (tracked && structural) changes.inserted_edges.push_back({op.u, op.v});
      break;
    case GraphUpdate::Kind::kDeleteEdge:
      oracle_.note_edge_deleted(op.u, op.v);
      PARDFS_CHECK(graph_.remove_edge(op.u, op.v));
      if (structural) {  // a tree edge: one parent slot orients the cut
        if (parent_[static_cast<std::size_t>(op.v)] == op.u) {
          changes.cut_edges.emplace_back(op.u, op.v);
        } else {
          changes.cut_edges.emplace_back(op.v, op.u);
        }
      }
      break;
    case GraphUpdate::Kind::kDeleteVertex:
      PARDFS_CHECK(graph_.is_alive(op.u));
      oracle_.note_vertex_deleted(op.u, graph_.neighbors(op.u));
      graph_.remove_vertex(op.u);
      if (tracked) changes.deleted_vertices.push_back(op.u);
      break;
    case GraphUpdate::Kind::kInsertVertex: {
      const Vertex v = graph_.add_vertex(op.neighbors);
      oracle_.note_vertex_inserted(v, op.neighbors);
      parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
      changes.inserted_vertices.push_back(v);
      break;
    }
  }
}

Vertex DynamicDfs::apply(const GraphUpdate& op) {
  // Checked before anything indexes by vertex id, closes an epoch or builds D.
  if (op.kind != GraphUpdate::Kind::kInsertVertex) {
    PARDFS_CHECK(graph_.is_alive(op.u));
    PARDFS_CHECK(op.kind == GraphUpdate::Kind::kDeleteVertex ||
                 graph_.is_alive(op.v));
  }
  const bool structural = is_structural(op);
  // Close the epoch (if due) and build D against the pre-update graph, so a
  // fresh D never holds an inserted edge in both its sorted lists and its
  // patch lists.
  if (structural) prepare_update();
  BatchChanges c;
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    absorb(op, structural, index_->capacity(), c);
  }
  if (!structural) {
    last_stats_ = {};  // back edge: forest untouched, one patch, no rebuild
    return kNullVertex;
  }
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const OracleView view(&oracle_, index_.get(), at_base());
    if (!c.cut_edges.empty()) {
      const auto [parent_side, child_side] = c.cut_edges.front();
      execute(reduce_delete_tree_edge(*index_, view, parent_side, child_side), view);
    } else if (!c.inserted_edges.empty()) {
      execute(reduce_insert_edge(*index_, op.u, op.v), view);
    } else if (!c.inserted_vertices.empty()) {
      execute(reduce_insert_vertex(*index_, c.inserted_vertices.front(), op.neighbors),
              view);
    } else {
      // The index and parent_ still describe the pre-update forest, so v's
      // children and parent are read from them after the graph lost v.
      const Vertex v = op.u;
      const ReductionResult r = reduce_delete_vertex(
          *index_, view, v, index_->children(v), parent_[static_cast<std::size_t>(v)]);
      parent_[static_cast<std::size_t>(v)] = kNullVertex;
      execute(r, view);
    }
  }
  finish_structural();
  return c.inserted_vertices.empty() ? kNullVertex : c.inserted_vertices.front();
}

bool DynamicDfs::is_structural(const GraphUpdate& u) const {
  // An id at or beyond the graph's capacity belongs to a vertex inserted
  // earlier in the open segment: an isolated root of the pre-segment forest,
  // so an edge to it never joins an ancestor pair and is never a tree edge.
  const bool pending = u.u >= graph_.capacity() || u.v >= graph_.capacity();
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      if (pending) return true;
      PARDFS_CHECK(graph_.is_alive(u.u) && graph_.is_alive(u.v));
      return !index_->is_ancestor(u.u, u.v) && !index_->is_ancestor(u.v, u.u);
    case GraphUpdate::Kind::kDeleteEdge:
      if (pending) return false;
      PARDFS_CHECK(graph_.is_alive(u.u) && graph_.is_alive(u.v));
      return parent_[static_cast<std::size_t>(u.v)] == u.u ||
             parent_[static_cast<std::size_t>(u.u)] == u.v;
    case GraphUpdate::Kind::kInsertVertex:
    case GraphUpdate::Kind::kDeleteVertex:
      return true;
  }
  return true;
}

bool DynamicDfs::flush_segment(Segment& seg) {
  if (seg.ops.empty()) return false;
  // The combined reduction takes every segment with a structural member when
  // the work cap is on; without it (serial_cutoff = 0), a single update
  // keeps the per-update path. All patch-only: one patch each, no rebuild.
  if (seg.structural == 0 || (seg.ops.size() == 1 && engine_cutoff() == 0)) {
    for (const auto& op : seg.ops) apply(*op.first);
    seg.ops.clear();
    seg.structural = 0;
    return false;
  }
  // Epoch policy runs once, against the pre-batch graph (see apply). D is
  // built only below, if the engine will query it.
  maybe_close_epoch();
  // Phase 1: absorb the whole segment, collecting the structural changes
  // against the still-pre-batch forest.
  BatchChanges changes;
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    const Vertex fresh = index_->capacity();
    for (const auto& [u, structural] : seg.ops) absorb(*u, structural, fresh, changes);
  }
  // Phase 2 + 3: one combined reduction, one engine pass.
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const std::int32_t cutoff = engine_cutoff();
    // The work cap rides on the serial finish: serial_cutoff = 0 keeps the
    // pure round machinery (DESIGN.md §9). A segment past the Theorem 9
    // budget recomputes all it touches. The reduction reads graph rows.
    const WorkCap cap = cutoff == 0 ? WorkCap::kOff
                        : seg.structural > epoch_period_ ? WorkCap::kAll
                                                         : WorkCap::kPredicted;
    BatchReduction reduction = reduce_batch(*index_, graph_, changes, cap, cost_);
    // A stale D is built only if a component takes the round machinery. It
    // is built over the mutated graph, with the pre-batch forest as base,
    // and the CSR invariant keeps it exact there: the batch's surviving
    // cross inserts enter as patches, and so do the edges of inserted ids
    // (AdjacencyOracle::build).
    if (oracle_.stale() &&
        !std::all_of(reduction.components.begin(), reduction.components.end(),
                     [&](const Component& c) {
                       return Rerooter::finishes_serially(*index_, c, cutoff);
                     })) {
      std::vector<Edge> cross;
      for (const Edge& e : changes.inserted_edges) {
        if (graph_.has_edge(e.u, e.v)) cross.push_back(e);
      }
      build_d(cross);
    }
    const OracleView view(&oracle_, index_.get(), at_base());
    Rerooter engine(*index_, graph_, view, strategy_, cost_, num_threads_,
                    cutoff);
    last_stats_ = engine.run_components(std::move(reduction.components), parent_);
    mirror_reroot_stats(last_stats_);
    for (const auto& [v, p] : reduction.direct) {
      parent_[static_cast<std::size_t>(v)] = p;
    }
    for (const Vertex v : changes.deleted_vertices) {
      parent_[static_cast<std::size_t>(v)] = kNullVertex;
    }
  }
  // Phase 4: one O(n) index rebuild for the whole segment.
  structural_since_rebase_ += seg.structural;
  base_is_current_ = false;
  rebuild_index();
  seg.ops.clear();
  seg.structural = 0;
  seg.inserts = 0;
  return true;
}

BatchStats DynamicDfs::apply_batch(std::span<const GraphUpdate> updates) {
  BatchStats stats;
  stats.updates = updates.size();
  const std::size_t index_rebuilds_before = index_rebuilds_;
  const std::size_t d_builds_before = d_builds_;

  // Under the work cap the whole batch is one segment. A vertex insert joins
  // it: its id is the graph's capacity plus the inserts already pending, so
  // later updates may reference it before the segment lands. Without the
  // cap an insert closes the segment and runs through the per-update path,
  // and a segment closes at epoch_period() structural updates.
  const bool capped = engine_cutoff() > 0;
  Segment seg;
  for (const GraphUpdate& u : updates) {
    if (u.kind == GraphUpdate::Kind::kInsertVertex && !capped) {
      stats.segments += flush_segment(seg) ? 1 : 0;
      stats.new_vertices.push_back(apply(u));
      ++stats.structural;
      continue;
    }
    bool structural = is_structural(u);
    if (structural && !capped && seg.structural >= epoch_period_) {
      stats.segments += flush_segment(seg) ? 1 : 0;
      structural = is_structural(u);  // the flush moved the forest
    }
    if (u.kind == GraphUpdate::Kind::kInsertVertex) {
      stats.new_vertices.push_back(graph_.capacity() + seg.inserts++);
    }
    seg.ops.emplace_back(&u, structural);
    seg.structural += structural ? 1 : 0;
    if (structural) {
      ++stats.structural;
    } else {
      ++stats.back_edges;
    }
  }
  stats.segments += flush_segment(seg) ? 1 : 0;
  stats.index_rebuilds = index_rebuilds_ - index_rebuilds_before;
  stats.base_rebuilds = d_builds_ - d_builds_before;
  // Update-mix counters: how many updates changed the forest and how many
  // were patch-only, next to the segments that absorbed them.
  static obs::Counter& structural_ctr = obs::Registry::global().counter(
      "pardfs_updates_total", "kind=\"structural\"");
  static obs::Counter& back_edge_ctr = obs::Registry::global().counter(
      "pardfs_updates_total", "kind=\"back_edge\"");
  static obs::Counter& segments_ctr =
      obs::Registry::global().counter("pardfs_segments_total");
  if (stats.structural != 0) structural_ctr.add(stats.structural);
  if (stats.back_edges != 0) back_edge_ctr.add(stats.back_edges);
  if (stats.segments != 0) segments_ctr.add(stats.segments);
  return stats;
}

}  // namespace pardfs
