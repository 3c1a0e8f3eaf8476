#include "core/dynamic_dfs.hpp"

#include <atomic>
#include <utility>

#include "baseline/static_dfs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace pardfs {
namespace {

// The update-path phase histograms (DESIGN.md §11). Recorded in raw
// nanoseconds, exported in microseconds; one sample per scoped phase entry,
// so quantiles are per-phase-execution latencies and sums reproduce the old
// cumulative UpdatePhaseBreakdown. The service layer owns the two remaining
// pipeline phases (queue_wait, publish) under the same metric name.
// Registration is once per process; the references are stable forever.
obs::Histogram& patch_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"patch\"", 1e-3);
  return h;
}
obs::Histogram& reroot_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"reroot\"", 1e-3);
  return h;
}
obs::Histogram& index_rebuild_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"index_rebuild\"", 1e-3);
  return h;
}
obs::Histogram& rebase_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_update_phase_us", "phase=\"rebase\"", 1e-3);
  return h;
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

// Set once a shard-labeled engine exists in the process: phase_breakdown()
// then widens its scan from the four unlabeled series to the whole family.
std::atomic<bool> g_sharded_phase_series{false};

// Retired indices kept for buffer reuse: current + epoch base + one in
// flight. Beyond that (snapshots pinning history) fresh allocations take
// over.
constexpr std::size_t kIndexPoolCap = 4;

}  // namespace

DynamicDfs::DynamicDfs(Graph graph, RerootStrategy strategy,
                       pram::CostModel* cost, int num_threads,
                       std::int32_t serial_cutoff, std::string obs_shard,
                       std::size_t epoch_period)
    : graph_(std::move(graph)),
      strategy_(strategy),
      cost_(cost),
      num_threads_(num_threads),
      serial_cutoff_(serial_cutoff),
      requested_period_(epoch_period) {
  // Eager registration: all four phase series of this instance appear (at
  // zero) on a metrics page even before the first update touches them.
  if (obs_shard.empty()) {
    patch_hist_ = &patch_hist();
    reroot_hist_ = &reroot_hist();
    index_rebuild_hist_ = &index_rebuild_hist();
    rebase_hist_ = &rebase_hist();
  } else {
    obs::Registry& reg = obs::Registry::global();
    const std::string shard = ",shard=\"" + obs_shard + "\"";
    patch_hist_ = &reg.histogram("pardfs_update_phase_us",
                                 "phase=\"patch\"" + shard, 1e-3);
    reroot_hist_ = &reg.histogram("pardfs_update_phase_us",
                                  "phase=\"reroot\"" + shard, 1e-3);
    index_rebuild_hist_ = &reg.histogram(
        "pardfs_update_phase_us", "phase=\"index_rebuild\"" + shard, 1e-3);
    rebase_hist_ = &reg.histogram("pardfs_update_phase_us",
                                  "phase=\"rebase\"" + shard, 1e-3);
    g_sharded_phase_series.store(true, std::memory_order_relaxed);
  }
  parent_ = static_dfs(graph_);
  rebuild_index();
  rebase();
}

std::int32_t DynamicDfs::engine_cutoff() const {
  return serial_cutoff_ < 0 ? Rerooter::default_serial_cutoff(index_->capacity())
                            : serial_cutoff_;
}

std::shared_ptr<TreeIndex> DynamicDfs::acquire_index_slot() {
  for (auto it = index_pool_.begin(); it != index_pool_.end(); ++it) {
    if (it->use_count() == 1) {
      // Sole owner is the pool itself, and pooled indices were never handed
      // out (see retire below), so every past reference was writer-local:
      // reusing the buffers races with nobody.
      std::shared_ptr<TreeIndex> slot = std::move(*it);
      index_pool_.erase(it);
      return slot;
    }
  }
  return std::make_shared<TreeIndex>();
}

void DynamicDfs::rebuild_index() {
  obs::ScopedPhase timer(*index_rebuild_hist_, "index_rebuild");
  parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
  std::shared_ptr<TreeIndex> next = acquire_index_slot();
  next->build(parent_, graph_.alive());
  // Retire the outgoing index for reuse — unless it escaped through
  // tree_ptr(): an escaped index may be released on a reader thread, and a
  // use_count() poll alone does not order that release before our re-build.
  if (index_ != nullptr && !index_escaped_ && index_pool_.size() < kIndexPoolCap) {
    index_pool_.push_back(std::move(index_));
  }
  index_ = std::move(next);
  index_escaped_ = false;
  ++index_rebuilds_;
}

void DynamicDfs::rebase() {
  obs::ScopedPhase timer(*rebase_hist_, "rebase");
  // index_ already describes the current forest: alias it as the epoch's
  // base tree (it is immutable — rebuild_index() swaps in a new object
  // rather than mutating) and rebuild D over it. No O(n) copy.
  base_index_ = index_;
  oracle_.build(graph_, *base_index_, cost_);
  structural_since_rebase_ = 0;
  ++epoch_rebuilds_;
  if (requested_period_ == kNeverRebase) base_graph_ = graph_;
  const auto n = static_cast<std::uint64_t>(graph_.num_vertices());
  epoch_period_ = requested_period_ != 0 ? requested_period_
                  : n > 1 ? static_cast<std::size_t>(64 - __builtin_clzll(n - 1))
                          : 1;
  // Theorem 9 budgets k <= log n *updates*; one structural update can emit
  // several patches (a vertex insert emits 1 + degree), so the patch cap
  // carries a constant slack over the epoch length. Saturates: a
  // kNeverRebase engine has no budget.
  patch_budget_ = epoch_period_ > kNeverRebase / 4 ? kNeverRebase : 4 * epoch_period_;
}

void DynamicDfs::reset_to_base() {
  PARDFS_CHECK_MSG(requested_period_ == kNeverRebase,
                   "reset_to_base needs a kNeverRebase engine");
  oracle_.clear_patches();
  graph_ = base_graph_;
  const std::span<const Vertex> base = base_index_->parents();
  parent_.assign(base.begin(), base.end());
  structural_since_rebase_ = 0;
  last_stats_ = {};
  rebuild_index();
}

void DynamicDfs::maybe_rebase() {
  if (structural_since_rebase_ >= epoch_period_ ||
      oracle_.patch_count() > patch_budget_) {
    rebase();
  }
}

void DynamicDfs::finish_structural() {
  ++structural_since_rebase_;
  rebuild_index();
}

void DynamicDfs::execute(const ReductionResult& reduction, const OracleView& view) {
  // parent_ already holds the pre-update forest; reroots overwrite their
  // subtrees, direct assignments patch single slots. The view is shared
  // with the preceding reduction so its decompose memo spans the update.
  Rerooter engine(*index_, view, strategy_, cost_, num_threads_,
                  engine_cutoff(), &graph_);
  last_stats_ = engine.run(reduction.reroots, parent_);
  mirror_reroot_stats(last_stats_);
  for (const auto& [v, p] : reduction.direct) {
    parent_[static_cast<std::size_t>(v)] = p;
  }
}

UpdatePhaseBreakdown DynamicDfs::phase_breakdown() {
  UpdatePhaseBreakdown b;
  b.patch_us = patch_hist().sum();
  b.reroot_us = reroot_hist().sum();
  b.index_rebuild_us = index_rebuild_hist().sum();
  b.rebase_us = rebase_hist().sum();
  if (g_sharded_phase_series.load(std::memory_order_relaxed)) {
    // Shard-labeled engines record into their own series of the same family;
    // fold them in so the breakdown stays a process-wide total. The service
    // phases (queue_wait, publish) share the metric name but not these phase
    // labels, so the prefix match skips them — exactly as before.
    for (const obs::Histogram* h : obs::Registry::global().histograms()) {
      if (h->name() != "pardfs_update_phase_us") continue;
      const std::string& l = h->labels();
      if (l.find(",shard=\"") == std::string::npos) continue;  // counted above
      if (l.rfind("phase=\"patch\"", 0) == 0) {
        b.patch_us += h->sum();
      } else if (l.rfind("phase=\"reroot\"", 0) == 0) {
        b.reroot_us += h->sum();
      } else if (l.rfind("phase=\"index_rebuild\"", 0) == 0) {
        b.index_rebuild_us += h->sum();
      } else if (l.rfind("phase=\"rebase\"", 0) == 0) {
        b.rebase_us += h->sum();
      }
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
  // component of v is everything sharing its root.
  const Vertex root = index_->root_of(v);
  for (Vertex w = 0; w < graph_.capacity(); ++w) {
    if (graph_.is_alive(w) && index_->root_of(w) == root) {
      t.vertices.push_back(w);
    }
  }
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
  // reference the extracted rows).
  rebuild_index();
  rebase();
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
  rebase();
}

void DynamicDfs::insert_edge(Vertex u, Vertex v) {
  // Checked before the back-edge test, which indexes by vertex id.
  PARDFS_CHECK(graph_.is_alive(u) && graph_.is_alive(v));
  const bool back = index_->is_ancestor(u, v) || index_->is_ancestor(v, u);
  // Rebase (if due) against the pre-update graph so the fresh D never holds
  // (u, v) in both its sorted lists and its patch lists.
  if (!back) maybe_rebase();
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    PARDFS_CHECK(graph_.add_edge(u, v));
    oracle_.note_edge_inserted(u, v);
  }
  if (back) {
    last_stats_ = {};  // back edge: forest untouched, one patch, no rebuild
    return;
  }
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const OracleView view(&oracle_, index_.get(), at_base());
    execute(reduce_insert_edge(*index_, u, v), view);
  }
  finish_structural();
}

void DynamicDfs::delete_edge(Vertex u, Vertex v) {
  // Checked before the tree-edge test, which indexes by vertex id.
  PARDFS_CHECK(graph_.is_alive(u) && graph_.is_alive(v));
  const bool u_parent = parent_[static_cast<std::size_t>(v)] == u;
  const bool v_parent = parent_[static_cast<std::size_t>(u)] == v;
  const bool tree_edge = u_parent || v_parent;
  if (tree_edge) maybe_rebase();
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    oracle_.note_edge_deleted(u, v);
    PARDFS_CHECK(graph_.remove_edge(u, v));
  }
  if (!tree_edge) {
    last_stats_ = {};  // back edge: forest untouched, one patch, no rebuild
    return;
  }
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const Vertex parent_side = u_parent ? u : v;
    const Vertex child_side = u_parent ? v : u;
    const OracleView view(&oracle_, index_.get(), at_base());
    execute(reduce_delete_tree_edge(*index_, view, parent_side, child_side), view);
  }
  finish_structural();
}

Vertex DynamicDfs::insert_vertex(std::span<const Vertex> neighbors) {
  maybe_rebase();
  Vertex v = kNullVertex;
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    v = graph_.add_vertex(neighbors);
    oracle_.note_vertex_inserted(v, neighbors);
  }
  parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const OracleView view(&oracle_, index_.get(), at_base());
    execute(reduce_insert_vertex(*index_, v, neighbors), view);
  }
  finish_structural();
  return v;
}

void DynamicDfs::delete_vertex(Vertex v) {
  maybe_rebase();
  const auto nbrs = graph_.neighbors(v);
  const std::vector<Vertex> former_neighbors(nbrs.begin(), nbrs.end());
  std::vector<Vertex> children(index_->children(v).begin(), index_->children(v).end());
  const Vertex former_parent = parent_[static_cast<std::size_t>(v)];
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    oracle_.note_vertex_deleted(v, former_neighbors);
    graph_.remove_vertex(v);
  }
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const OracleView view(&oracle_, index_.get(), at_base());
    const ReductionResult r =
        reduce_delete_vertex(*index_, view, v, children, former_parent);
    parent_[static_cast<std::size_t>(v)] = kNullVertex;
    execute(r, view);
  }
  finish_structural();
}

void DynamicDfs::apply(const GraphUpdate& update) {
  switch (update.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      insert_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kDeleteEdge:
      delete_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kInsertVertex:
      insert_vertex(update.neighbors);
      break;
    case GraphUpdate::Kind::kDeleteVertex:
      delete_vertex(update.u);
      break;
  }
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
    for (const GraphUpdate* op : seg.ops) apply(*op);
    seg.ops.clear();
    seg.structural = 0;
    return false;
  }
  // Epoch policy runs once, against the pre-batch graph (see insert_edge).
  maybe_rebase();
  // Phase 1: mutate the graph and patch D for the whole segment, collecting
  // the structural changes against the still-pre-batch forest. Ids from
  // `fresh` on were inserted by this segment: the index does not cover them,
  // and their edges reach the reduction through the graph, not `changes`.
  const Vertex fresh = index_->capacity();
  const auto touches_fresh = [&](const GraphUpdate& op) {
    return op.u >= fresh || op.v >= fresh;
  };
  BatchChanges changes;
  {
    obs::ScopedPhase timer(*patch_hist_, "patch");
    for (const GraphUpdate* op : seg.ops) {
      switch (op->kind) {
        case GraphUpdate::Kind::kInsertEdge: {
          const bool cross = !touches_fresh(*op) &&
                             !index_->is_ancestor(op->u, op->v) &&
                             !index_->is_ancestor(op->v, op->u);
          PARDFS_CHECK(graph_.add_edge(op->u, op->v));
          oracle_.note_edge_inserted(op->u, op->v);
          if (cross) changes.inserted_edges.push_back({op->u, op->v});
          break;
        }
        case GraphUpdate::Kind::kDeleteEdge: {
          const bool tracked = !touches_fresh(*op);
          const bool u_parent =
              tracked && parent_[static_cast<std::size_t>(op->v)] == op->u;
          const bool v_parent =
              tracked && parent_[static_cast<std::size_t>(op->u)] == op->v;
          oracle_.note_edge_deleted(op->u, op->v);
          PARDFS_CHECK(graph_.remove_edge(op->u, op->v));
          if (u_parent) {
            changes.cut_edges.emplace_back(op->u, op->v);
          } else if (v_parent) {
            changes.cut_edges.emplace_back(op->v, op->u);
          }
          break;
        }
        case GraphUpdate::Kind::kDeleteVertex: {
          const Vertex v = op->u;
          PARDFS_CHECK(graph_.is_alive(v));
          const auto nbrs = graph_.neighbors(v);
          const std::vector<Vertex> former_neighbors(nbrs.begin(), nbrs.end());
          oracle_.note_vertex_deleted(v, former_neighbors);
          graph_.remove_vertex(v);
          if (v < fresh) changes.deleted_vertices.push_back(v);
          break;
        }
        case GraphUpdate::Kind::kInsertVertex: {
          const Vertex v = graph_.add_vertex(op->neighbors);
          oracle_.note_vertex_inserted(v, op->neighbors);
          changes.inserted_vertices.push_back(v);
          break;
        }
      }
    }
  }
  parent_.resize(static_cast<std::size_t>(graph_.capacity()), kNullVertex);
  // Phase 2 + 3: one combined reduction, one engine pass.
  {
    obs::ScopedPhase timer(*reroot_hist_, "reroot");
    const OracleView view(&oracle_, index_.get(), at_base());
    // The work cap rides on the serial finish: serial_cutoff = 0 keeps the
    // pure round machinery (DESIGN.md §9).
    BatchReduction reduction =
        reduce_batch(*index_, view, graph_, changes, engine_cutoff() > 0);
    Rerooter engine(*index_, view, strategy_, cost_, num_threads_,
                  engine_cutoff(), &graph_);
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
  const std::size_t base_rebuilds_before = epoch_rebuilds_;

  // Under the work cap a vertex insert joins the open segment: its id is the
  // graph's capacity plus the inserts already pending, so later updates may
  // reference it before the segment lands. Without the cap it closes the
  // segment and runs through the per-update path.
  const bool join_inserts = engine_cutoff() > 0;
  Segment seg;
  for (const GraphUpdate& u : updates) {
    if (u.kind == GraphUpdate::Kind::kInsertVertex && !join_inserts) {
      stats.segments += flush_segment(seg) ? 1 : 0;
      stats.new_vertices.push_back(insert_vertex(u.neighbors));
      ++stats.structural;
      continue;
    }
    const bool structural = is_structural(u);
    if (structural && seg.structural >= epoch_period_) {
      stats.segments += flush_segment(seg) ? 1 : 0;
    }
    if (u.kind == GraphUpdate::Kind::kInsertVertex) {
      stats.new_vertices.push_back(graph_.capacity() + seg.inserts++);
    }
    seg.ops.push_back(&u);
    seg.structural += structural ? 1 : 0;
    if (structural) {
      ++stats.structural;
    } else {
      ++stats.back_edges;
    }
  }
  stats.segments += flush_segment(seg) ? 1 : 0;
  stats.index_rebuilds = index_rebuilds_ - index_rebuilds_before;
  stats.base_rebuilds = epoch_rebuilds_ - base_rebuilds_before;
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
