#include "service/shard_router.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/articulation.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "service/journal.hpp"
#include "testing/chaos.hpp"
#include "util/check.hpp"

namespace pardfs::service {
namespace {

// Control-plane clock: heartbeats, stall fencing and recovery timing must
// keep working when metrics are compiled out (obs::now_ns() is 0 then), so
// the supervision layer reads steady_clock directly.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The vertices an op references: edge ends, a vertex insert's neighbors or a
// deleted vertex.
std::vector<Vertex> endpoints(const GraphUpdate& u) {
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge:
      return {u.u, u.v};
    case GraphUpdate::Kind::kInsertVertex:
      return u.neighbors;
    case GraphUpdate::Kind::kDeleteVertex:
      return {u.u};
  }
  return {};
}

// Robustness families (DESIGN.md §13). Process-global: a recovery is a
// process-level event regardless of which shard crashed.
obs::Histogram& recovery_latency_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_recovery_latency_us", "", 1e-3);
  return h;
}
obs::Counter& stalls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_writer_stalls_total");
  return c;
}
obs::Counter& checkpoints_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_journal_checkpoints_total");
  return c;
}
// Wall time of each journal checkpoint, taken under the shard's engine
// lock: the stall a checkpoint adds to that shard's writer and readers.
obs::Histogram& checkpoint_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "pardfs_journal_checkpoint_us", "", 1e-3);
  return h;
}

// The router's event counts as page rows, under the series names and
// labels the dashboards read: totals over the router's shards, unlabeled
// at any shard count.
std::array<obs::CounterRow, 10> event_rows(const ServiceStats& st) {
  return {{
      {"pardfs_acks_rejected_total", "reason=\"infeasible\"",
       st.updates_rejected},
      {"pardfs_acks_rejected_total", "reason=\"shutdown\"",
       st.rejected_shutdown},
      {"pardfs_acks_retryable_total", "", st.retryable_acks},
      {"pardfs_batches_total", "", st.batches},
      {"pardfs_cross_shard_inserts_total", "", st.cross_shard_inserts},
      {"pardfs_overload_shed_total", "", st.overload_sheds},
      {"pardfs_recoveries_total", "", st.recoveries},
      {"pardfs_shard_migrations_total", "", st.shard_migrations},
      {"pardfs_snapshots_published_total", "", st.snapshots_published},
      {"pardfs_updates_applied_total", "", st.updates_applied},
  }};
}

void bump(std::atomic<std::uint64_t>& count, std::uint64_t by = 1) {
  count.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

// Lock-free chunked directory: a fixed top-level array of atomic chunk
// pointers covering the full 31-bit id space, chunks allocated on demand.
// -1 = the id was never assigned. Entries outlive their vertex (they keep
// pointing at the shard where it died), so every id resolves to a snapshot
// that answers the totality-preserving default.
class ShardRouter::Directory {
 public:
  Directory() {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }
  ~Directory() {
    for (auto& c : chunks_) delete c.load(std::memory_order_relaxed);
  }
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  std::int32_t get(Vertex v) const {
    if (v < 0) return -1;
    const std::size_t idx = static_cast<std::size_t>(v) >> kChunkBits;
    if (idx >= kMaxChunks) return -1;
    const Chunk* c = chunks_[idx].load(std::memory_order_acquire);
    if (c == nullptr) return -1;
    return c->entry[static_cast<std::size_t>(v) & kChunkMask].load(
        std::memory_order_acquire);
  }

  void set(Vertex v, std::int32_t shard) {
    const std::size_t idx = static_cast<std::size_t>(v) >> kChunkBits;
    PARDFS_CHECK_MSG(v >= 0 && idx < kMaxChunks,
                     "vertex id outside the directory's range");
    Chunk* c = chunks_[idx].load(std::memory_order_acquire);
    if (c == nullptr) {
      std::lock_guard lock(grow_mu_);
      c = chunks_[idx].load(std::memory_order_acquire);
      if (c == nullptr) {
        auto fresh = std::make_unique<Chunk>();
        for (auto& e : fresh->entry) e.store(-1, std::memory_order_relaxed);
        c = fresh.release();
        chunks_[idx].store(c, std::memory_order_release);
      }
    }
    c->entry[static_cast<std::size_t>(v) & kChunkMask].store(
        shard, std::memory_order_release);
  }

 private:
  static constexpr std::size_t kChunkBits = 16;
  static constexpr std::size_t kChunkMask = (std::size_t{1} << kChunkBits) - 1;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;  // 2^31 ids
  struct Chunk {
    std::array<std::atomic<std::int32_t>, std::size_t{1} << kChunkBits> entry;
  };
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_;
  std::mutex grow_mu_;
};

// One full single-writer serving stack (dfs_service.hpp's former internals).
// `mu` is the engine lock: the shard's writer holds it while applying and
// publishing; a merge executed by another shard's writer holds both involved
// engine locks (ascending id order). Snapshot loads never take it.
struct ShardRouter::Shard {
  Shard(std::size_t id_, Graph g, const ServiceConfig& cfg,
        std::string obs_label)
      : id(id_),
        dfs(std::move(g), cfg.strategy, nullptr, cfg.num_threads, -1,
            std::move(obs_label)),
        queue(cfg.queue_capacity) {}

  const std::size_t id;
  mutable std::mutex mu;
  DynamicDfs dfs;                     // guarded by mu
  UpdateQueue queue;
  std::atomic<SnapshotPtr> snapshot;
  std::uint64_t version = 0;          // guarded by mu
  std::uint64_t updates_applied = 0;  // guarded by mu
  std::uint64_t last_publish_ns = 0;  // guarded by mu

  // The one count of each router event on this shard (DESIGN.md §11), read
  // by shard_stats() and the metrics page. Other shards' writers and the
  // watchdog count here too, hence atomics; relaxed ones, since an event is
  // counted before its ack's release store. Own cache lines: readers load
  // `snapshot` on every query, and count bumps must not invalidate it.
  struct alignas(64) Counts {
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> updates_applied{0};
    std::atomic<std::uint64_t> updates_rejected{0};
    std::atomic<std::uint64_t> snapshots_published{0};
    std::atomic<std::uint64_t> max_batch{0};  // an atomic max
    std::atomic<std::uint64_t> structural{0};
    std::atomic<std::uint64_t> back_edges{0};
    std::atomic<std::uint64_t> segments{0};
    std::atomic<std::uint64_t> index_rebuilds{0};
    std::atomic<std::uint64_t> base_rebuilds{0};
    std::atomic<std::uint64_t> shard_migrations{0};
    std::atomic<std::uint64_t> cross_shard_inserts{0};
    std::atomic<std::uint64_t> recoveries{0};
    std::atomic<std::uint64_t> retryable_acks{0};  // counted after its won ack
    std::atomic<std::uint64_t> overload_sheds{0};  // admission control only
  } counts;

  // ---- failure domain (DESIGN.md §13) --------------------------------------
  // Write-ahead journal; recording happens under mu, replay with mu held and
  // the writer dead. Null when ServiceConfig::enable_journal is off.
  std::unique_ptr<UpdateJournal> journal;
  // The accepted-and-journaled batch currently being applied: its tickets
  // are durable — if the writer crashes before acking them, recovery acks
  // them with the recorded version (+ the replayed insert ids) instead of
  // kRetryable. Guarded by mu; cleared once the live path acks.
  struct WalPending {
    std::vector<UpdateTicket> tickets;
    std::vector<GraphUpdate::Kind> kinds;  // parallel to tickets
    std::uint64_t version = 0;
  };
  std::optional<WalPending> wal_pending;  // guarded by mu
  // Writer liveness, all lock-free so the watchdog never touches mu to
  // observe: heartbeat stamped at each drain, busy while a drained batch is
  // processing, crashed set by the writer's catch block, fenced set by the
  // watchdog on a stale busy heartbeat (the writer converts it to a crash at
  // its next cancellation point), poison set by inject_writer_failure().
  std::atomic<std::uint64_t> heartbeat_ns{0};
  std::atomic<bool> busy{false};
  std::atomic<bool> crashed{false};
  std::atomic<bool> fenced{false};
  std::atomic<bool> poison{false};
  // Journal replay threw (journal disabled or itself damaged): the watchdog
  // stops retrying; the shard degrades to read-only until stop().
  std::atomic<bool> unrecoverable{false};
  // This shard's service series (S == 1: the unlabeled ones).
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* publish_hist = nullptr;
  obs::Histogram* ack_latency = nullptr;
  obs::Histogram* staleness = nullptr;
  obs::Gauge* depth_gauge = nullptr;
  obs::Gauge* coalesce_gauge = nullptr;
  std::thread writer;  // started by the router after every shard is published
};

// Tracks the effect of the accepted prefix of one batch on top of the shard
// graph, so feasibility of update i sees updates 0..i-1 (clients race each
// other; the queue order is the serialization the service commits to).
struct ShardRouter::BatchDelta {
  std::unordered_map<std::uint64_t, bool> edges;  // undirected key -> present
  std::unordered_set<Vertex> dead;
  Vertex next_vertex = 0;  // first id not yet assigned
};

ShardRouter::ShardRouter(Graph initial, ServiceConfig config)
    : config_(config) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  const std::size_t S = config_.num_shards;
  paused_ = config_.start_paused;
  directory_ = std::make_unique<Directory>();
  global_next_.store(initial.capacity(), std::memory_order_relaxed);
  const Vertex n = initial.capacity();

  // Component partition: BFS over the initial graph, components assigned
  // round-robin in ascending root-id order (balanced in component count and
  // deterministic, so repeated constructions shard identically).
  std::vector<std::int32_t> owner(static_cast<std::size_t>(n), -1);
  {
    std::vector<Vertex> stack;
    std::size_t next_shard = 0;
    for (Vertex r = 0; r < n; ++r) {
      if (!initial.is_alive(r) || owner[static_cast<std::size_t>(r)] != -1) {
        continue;
      }
      const auto s = static_cast<std::int32_t>(next_shard);
      next_shard = (next_shard + 1) % S;
      owner[static_cast<std::size_t>(r)] = s;
      stack.push_back(r);
      while (!stack.empty()) {
        const Vertex v = stack.back();
        stack.pop_back();
        for (const Vertex w : initial.neighbors(v)) {
          if (owner[static_cast<std::size_t>(w)] == -1) {
            owner[static_cast<std::size_t>(w)] = s;
            stack.push_back(w);
          }
        }
      }
    }
  }

  // Per-shard engines over full-id-space graphs: a shard owns whole
  // components, every other id is a dead hole. Verbatim adjacency rows keep
  // each component's forest byte-identical to a single-shard run.
  for (std::size_t s = 0; s < S; ++s) {
    Graph g;
    if (S == 1) {
      g = std::move(initial);
    } else {
      g.pad_to(n);
      std::vector<Vertex> verts;
      std::vector<std::vector<Vertex>> rows;
      for (Vertex v = 0; v < n; ++v) {
        if (owner[static_cast<std::size_t>(v)] ==
            static_cast<std::int32_t>(s)) {
          verts.push_back(v);
          const auto nb = initial.neighbors(v);
          rows.emplace_back(nb.begin(), nb.end());
        }
      }
      g.adopt_component(verts, std::move(rows));
    }
    // The shard's series label, shared by its engine, journal and service
    // series: empty at S == 1, where the unlabeled series are the shard's.
    const std::string label = S > 1 ? std::to_string(s) : std::string();
    // The journal captures the genesis graph (a copy, taken before the
    // engine consumes it) plus the engine's construction parameters, so
    // replay() rebuilds with exactly the live configuration.
    std::unique_ptr<UpdateJournal> journal;
    if (config_.enable_journal) {
      UpdateJournal::Config jcfg;
      jcfg.strategy = config_.strategy;
      jcfg.num_threads = config_.num_threads;
      jcfg.obs_shard = label;
      if (!config_.journal_path_prefix.empty()) {
        jcfg.file_path = config_.journal_path_prefix + std::to_string(s) + ".log";
      }
      journal = std::make_unique<UpdateJournal>(g, std::move(jcfg));
    }
    auto sh = std::make_unique<Shard>(s, std::move(g), config_, label);
    sh->journal = std::move(journal);
    if (config_.enable_chaos) sh->queue.enable_chaos(static_cast<std::int32_t>(s));
    // Eager registration: every shard's full series set (plus the
    // process-wide robustness families below) shows up at zero on a fresh
    // metrics page. Submit-to-ack latency of accepted updates feeds the
    // p50/p99 pipeline target; staleness is the age of the outgoing
    // snapshot at replacement, how stale a reader's forest could be.
    obs::Registry& reg = obs::Registry::global();
    const auto series = [&](std::string labels) {
      return obs::shard_labels(std::move(labels), label);
    };
    sh->queue_wait = &reg.histogram("pardfs_update_phase_us",
                                    series("phase=\"queue_wait\""), 1e-3);
    sh->publish_hist = &reg.histogram("pardfs_update_phase_us",
                                      series("phase=\"publish\""), 1e-3);
    sh->ack_latency = &reg.histogram("pardfs_ack_latency_us", series({}), 1e-3);
    sh->staleness =
        &reg.histogram("pardfs_snapshot_staleness_us", series({}), 1e-3);
    sh->depth_gauge = &reg.gauge("pardfs_queue_depth", series({}));
    sh->coalesce_gauge = &reg.gauge("pardfs_coalesce_size", series({}));
    shards_.push_back(std::move(sh));
  }
  recovery_latency_hist();
  stalls_counter();
  checkpoints_counter();
  checkpoint_hist();

  for (Vertex v = 0; v < n; ++v) {
    if (S == 1) {
      // `initial` was moved into shard 0; its liveness now lives there.
      if (shards_[0]->dfs.graph().is_alive(v)) directory_->set(v, 0);
    } else if (owner[static_cast<std::size_t>(v)] >= 0) {
      directory_->set(v, owner[static_cast<std::size_t>(v)]);
    }
  }
  for (auto& sh : shards_) {
    std::lock_guard lock(sh->mu);
    sh->version = 1;
    publish(*sh);
  }
  for (auto& sh : shards_) {
    sh->writer = std::thread([this, shard = sh.get()] { writer_loop(*shard); });
  }
  if (config_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

int ShardRouter::shard_of(Vertex v) const { return directory_->get(v); }

SnapshotPtr ShardRouter::shard_snapshot(std::size_t shard) const {
  return shards_[shard]->snapshot.load(std::memory_order_acquire);
}

UpdateTicket ShardRouter::submit(GraphUpdate update) {
  Shard& sh = *shards_[route(update)];
  UpdateTicket shed;
  if (shed_overloaded(sh, &shed)) return shed;
  return sh.queue.submit(std::move(update));
}

bool ShardRouter::try_submit(GraphUpdate update, UpdateTicket* ticket) {
  Shard& sh = *shards_[route(update)];
  UpdateTicket shed;
  if (shed_overloaded(sh, &shed)) {
    // The non-blocking contract stays "true = you hold a ticket": the caller
    // inspects it and finds kOverloaded instead of a version.
    *ticket = shed;
    return true;
  }
  return sh.queue.try_submit(std::move(update), ticket);
}

// Admission control: shed with a pre-acked kOverloaded ticket when the
// target shard's queue is past the depth bound (default off).
bool ShardRouter::shed_overloaded(Shard& sh, UpdateTicket* out) {
  if (config_.max_queue_depth == 0 ||
      sh.queue.size() < config_.max_queue_depth) {
    return false;
  }
  bump(sh.counts.overload_sheds);
  *out = UpdateTicket::make();
  out->ack(UpdateTicket::kOverloaded);
  return true;
}

std::uint64_t ShardRouter::apply_sync(GraphUpdate update) {
  // A submit racing stop() yields a pre-rejected ticket, so the blocking
  // wait is unconditionally safe.
  return submit(std::move(update)).wait();
}

std::size_t ShardRouter::route(const GraphUpdate& u) const {
  const std::size_t S = shards_.size();
  if (S == 1) return 0;
  // Gateway routing: the smallest shard any referenced vertex resolves to.
  // Ops with no resolvable endpoint go to shard 0 (edge/delete: rejected by
  // its feasibility filter) or round-robin (isolated vertex inserts, which
  // are feasible anywhere). Components may migrate between routing and
  // drain; the writer re-resolves then.
  const auto min_dir = [&](std::span<const Vertex> vs) {
    std::int32_t best = -1;
    for (const Vertex v : vs) {
      const std::int32_t s = directory_->get(v);
      if (s >= 0 && (best < 0 || s < best)) best = s;
    }
    return best;
  };
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge: {
      const std::array<Vertex, 2> ends{u.u, u.v};
      const std::int32_t s = min_dir(ends);
      return s >= 0 ? static_cast<std::size_t>(s) : 0;
    }
    case GraphUpdate::Kind::kInsertVertex: {
      const std::int32_t s = min_dir(u.neighbors);
      if (s >= 0) return static_cast<std::size_t>(s);
      if (!u.neighbors.empty()) return 0;  // unknown neighbors: rejected there
      return isolated_rr_.fetch_add(1, std::memory_order_relaxed) % S;
    }
    case GraphUpdate::Kind::kDeleteVertex: {
      const std::int32_t s = directory_->get(u.u);
      return s >= 0 ? static_cast<std::size_t>(s) : 0;
    }
  }
  return 0;
}

void ShardRouter::pause() {
  {
    std::lock_guard lock(control_mu_);
    paused_ = true;
  }
  control_cv_.notify_all();
}

void ShardRouter::resume() {
  {
    std::lock_guard lock(control_mu_);
    paused_ = false;
  }
  control_cv_.notify_all();
}

void ShardRouter::stop() {
  {
    std::lock_guard lock(control_mu_);
    stopped_ = true;
    paused_ = false;
  }
  control_cv_.notify_all();
  // The watchdog goes first: once it is joined, nobody can respawn a writer
  // behind the join loop below (respawn checks stopped_ under control_mu_).
  {
    std::lock_guard lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& sh : shards_) sh->queue.close();
  for (auto& sh : shards_) {
    if (sh->writer.joinable()) sh->writer.join();
  }
  // Shutdown totality sweep: a shard that crashed after the watchdog left
  // (or ran without one) still owes acks. Recover it in place — the journal
  // replay acks its wal-pending batch with the recorded version — then flush
  // whatever its queue still holds as kRetryable. Every ticket ever returned
  // is acknowledged when stop() returns.
  for (auto& sh : shards_) {
    if (sh->crashed.load(std::memory_order_acquire) &&
        !sh->unrecoverable.load(std::memory_order_acquire)) {
      try {
        recover_shard(*sh, /*respawn=*/false);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pardfs: shutdown recovery of shard %zu failed: %s\n",
                     sh->id, e.what());
        abandon_shard(*sh);
      }
    } else if (sh->crashed.load(std::memory_order_acquire)) {
      abandon_shard(*sh);  // idempotent wal flush for the degraded shard
    }
    std::vector<PendingUpdate> rest;
    sh->queue.drain(rest, 0);
    for (const PendingUpdate& p : rest) ack_retryable(*sh, p.ticket);
  }
}

ServiceStats ShardRouter::stats() const {
  ServiceStats out;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ServiceStats st = shard_stats(s);
    out.batches += st.batches;
    out.updates_applied += st.updates_applied;
    out.updates_rejected += st.updates_rejected;
    out.snapshots_published += st.snapshots_published;
    out.max_batch = std::max(out.max_batch, st.max_batch);
    out.structural += st.structural;
    out.back_edges += st.back_edges;
    out.segments += st.segments;
    out.index_rebuilds += st.index_rebuilds;
    out.base_rebuilds += st.base_rebuilds;
    out.rejected_shutdown += st.rejected_shutdown;
    out.shard_migrations += st.shard_migrations;
    out.cross_shard_inserts += st.cross_shard_inserts;
    out.recoveries += st.recoveries;
    out.retryable_acks += st.retryable_acks;
    out.overload_sheds += st.overload_sheds;
  }
  return out;
}

ServiceStats ShardRouter::shard_stats(std::size_t shard) const {
  const Shard& sh = *shards_[shard];
  const Shard::Counts& c = sh.counts;
  const auto get = [](const std::atomic<std::uint64_t>& count) {
    return count.load(std::memory_order_relaxed);
  };
  return {
      .batches = get(c.batches),
      .updates_applied = get(c.updates_applied),
      .updates_rejected = get(c.updates_rejected),
      .snapshots_published = get(c.snapshots_published),
      .max_batch = get(c.max_batch),
      .structural = get(c.structural),
      .back_edges = get(c.back_edges),
      .segments = get(c.segments),
      .index_rebuilds = get(c.index_rebuilds),
      .base_rebuilds = get(c.base_rebuilds),
      // The queue's two counts are the only ones of those events: neither
      // kind of ticket ever reaches a writer.
      .rejected_shutdown = sh.queue.rejected_after_close(),
      .shard_migrations = get(c.shard_migrations),
      .cross_shard_inserts = get(c.cross_shard_inserts),
      .recoveries = get(c.recoveries),
      .retryable_acks = get(c.retryable_acks),
      .overload_sheds = get(c.overload_sheds) + sh.queue.overload_sheds(),
  };
}

std::size_t ShardRouter::queue_depth() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->queue.size();
  return total;
}

std::size_t ShardRouter::queue_depth(std::size_t shard) const {
  return shards_[shard]->queue.size();
}

Vertex ShardRouter::capacity() const {
  return global_next_.load(std::memory_order_acquire);
}

Vertex ShardRouter::num_vertices() const {
  Vertex total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_snapshot(s)->num_vertices();
  }
  return total;
}

std::int64_t ShardRouter::num_edges() const {
  std::int64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += shard_snapshot(s)->num_edges();
  }
  return total;
}

std::vector<Vertex> ShardRouter::assemble_parent() const {
  const Vertex n = capacity();
  std::vector<SnapshotPtr> snaps;
  snaps.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snaps.push_back(shard_snapshot(s));
  }
  std::vector<Vertex> out(static_cast<std::size_t>(n), kNullVertex);
  for (Vertex v = 0; v < n; ++v) {
    const std::int32_t s = directory_->get(v);
    if (s < 0) continue;
    const auto par = snaps[static_cast<std::size_t>(s)]->parent();
    if (static_cast<std::size_t>(v) < par.size()) {
      out[static_cast<std::size_t>(v)] = par[static_cast<std::size_t>(v)];
    }
  }
  return out;
}

std::vector<std::uint8_t> ShardRouter::assemble_alive() const {
  const Vertex n = capacity();
  std::vector<SnapshotPtr> snaps;
  snaps.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snaps.push_back(shard_snapshot(s));
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    const std::int32_t s = directory_->get(v);
    if (s < 0) continue;
    out[static_cast<std::size_t>(v)] =
        snaps[static_cast<std::size_t>(s)]->contains(v) ? 1 : 0;
  }
  return out;
}

std::string ShardRouter::metrics_text() const {
  return obs::prometheus_text(obs::Registry::global(), event_rows(stats()));
}

std::string ShardRouter::metrics_json() const {
  return obs::metrics_json(obs::Registry::global(), event_rows(stats()));
}

const DynamicDfs& ShardRouter::core(std::size_t shard) const {
  return shards_[shard]->dfs;
}

void ShardRouter::publish(Shard& sh) {
  obs::ScopedPhase phase(*sh.publish_hist, "publish");
  const std::uint64_t now = obs::now_ns();
  if (sh.last_publish_ns != 0) {
    sh.staleness->record(now - sh.last_publish_ns);
  }
  sh.last_publish_ns = now;
  const Graph& g = sh.dfs.graph();
  // Cut structure depends on the back edges too, so a patch-only batch still
  // recomputes it — over the core's current index, the one being published.
  std::shared_ptr<const CutStructure> cuts;
  if (config_.serve_cuts) {
    cuts = std::make_shared<const CutStructure>(find_cuts(g, sh.dfs.tree()));
  }
  // The snapshot is the core's index: rebuilds swap in a new immutable
  // TreeIndex, so readers may hold it indefinitely, and a patch-only batch,
  // which rebuilds nothing, publishes the previous snapshot's index again.
  sh.snapshot.store(
      std::make_shared<const DfsSnapshot>(sh.version, sh.updates_applied,
                                          sh.dfs.tree_ptr(), g.num_edges(),
                                          std::move(cuts)),
      std::memory_order_release);
}

bool ShardRouter::feasible(const Shard& sh, const GraphUpdate& u,
                           BatchDelta& delta) const {
  const Graph& g = sh.dfs.graph();
  const auto alive = [&](Vertex v) {
    if (v < 0 || v >= delta.next_vertex) return false;
    if (delta.dead.contains(v)) return false;
    if (v < g.capacity()) return g.is_alive(v);
    return true;  // assigned by an earlier insert of this batch
  };
  const auto has_edge = [&](Vertex a, Vertex b) {
    const auto it = delta.edges.find(undirected_key(a, b));
    if (it != delta.edges.end()) return it->second;
    return g.has_edge(a, b);  // total: range-checked via liveness
  };
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      if (u.u == u.v || !alive(u.u) || !alive(u.v) || has_edge(u.u, u.v)) {
        return false;
      }
      delta.edges[undirected_key(u.u, u.v)] = true;
      return true;
    case GraphUpdate::Kind::kDeleteEdge:
      if (u.u == u.v || !alive(u.u) || !alive(u.v) || !has_edge(u.u, u.v)) {
        return false;
      }
      delta.edges[undirected_key(u.u, u.v)] = false;
      return true;
    case GraphUpdate::Kind::kInsertVertex: {
      for (const Vertex n : u.neighbors) {
        if (!alive(n)) return false;
      }
      for (std::size_t i = 0; i < u.neighbors.size(); ++i) {
        for (std::size_t j = i + 1; j < u.neighbors.size(); ++j) {
          if (u.neighbors[i] == u.neighbors[j]) return false;
        }
      }
      // Record the incident edges the insert creates: later updates of the
      // same batch may legitimately reference them.
      for (const Vertex n : u.neighbors) {
        delta.edges[undirected_key(delta.next_vertex, n)] = true;
      }
      ++delta.next_vertex;
      return true;
    }
    case GraphUpdate::Kind::kDeleteVertex:
      if (!alive(u.u)) return false;
      delta.dead.insert(u.u);
      return true;
  }
  return false;
}

bool ShardRouter::is_local(const Shard& gateway, const GraphUpdate& u) const {
  if (shards_.size() == 1) return true;
  const auto self = static_cast<std::int32_t>(gateway.id);
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge: {
      const std::int32_t su = directory_->get(u.u);
      const std::int32_t sv = directory_->get(u.v);
      // An endpoint the directory has never seen makes the op infeasible no
      // matter where it runs: classify local so this shard's feasibility
      // filter rejects it, exactly like the unsharded service would.
      if (su < 0 || sv < 0) return true;
      return su == self && sv == self;
    }
    case GraphUpdate::Kind::kInsertVertex: {
      for (const Vertex nb : u.neighbors) {
        if (directory_->get(nb) < 0) return true;  // infeasible: local reject
      }
      for (const Vertex nb : u.neighbors) {
        if (directory_->get(nb) != self) return false;
      }
      return true;  // includes isolated inserts (no neighbors)
    }
    case GraphUpdate::Kind::kDeleteVertex: {
      const std::int32_t s = directory_->get(u.u);
      return s < 0 || s == self;
    }
  }
  return true;
}

std::vector<std::size_t> ShardRouter::involved_shards(
    const Shard& gateway, const GraphUpdate& u) const {
  if (is_local(gateway, u)) return {gateway.id};
  // Not local, so every endpoint resolved (directory entries never return
  // to -1).
  std::vector<std::size_t> out;
  for (const Vertex v : endpoints(u)) {
    out.push_back(static_cast<std::size_t>(directory_->get(v)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ShardRouter::writer_loop(Shard& sh) {
  // The writer owns a recoverable failure domain: any PARDFS_CHECK its
  // frames trip throws InvariantViolation instead of aborting the process;
  // the catch below turns it (and injected faults) into shard poisoning +
  // journal-replay recovery (DESIGN.md §13).
  const ScopedRecoverableChecks recoverable;
  std::vector<PendingUpdate> pending;
  try {
    for (;;) {
      sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
      {
        std::unique_lock lock(control_mu_);
        control_cv_.wait(lock, [&] { return !paused_ || stopped_; });
      }
      pending.clear();
      {
        // The span covers the blocking wait for work — idle gaps show up as
        // long drain spans in the trace, not as holes.
        const obs::Span drain_span("drain");
        if (!sh.queue.drain(pending, config_.max_batch)) break;  // closed, drained
      }
      {
        // pause() may have landed while drain() was blocked on an empty queue:
        // drained updates are held, un-applied, until resume (or stop).
        std::unique_lock lock(control_mu_);
        control_cv_.wait(lock, [&] { return !paused_ || stopped_; });
      }
      // Cancellation point: a poison injected by inject_writer_failure() or
      // a fence raised by the watchdog (stalled heartbeat) becomes a crash
      // here, while nothing is half-applied — the drained updates are not
      // journaled yet, so the catch block acks them all kRetryable.
      sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
      sh.busy.store(true, std::memory_order_release);
      if (sh.poison.exchange(false)) {
        throw chaos::InjectedCrash("injected writer failure");
      }
      if (sh.fenced.load(std::memory_order_acquire)) {
        throw chaos::InjectedCrash("writer fenced by watchdog after stall");
      }
      // Queue-wait phase (submit -> drain) per update, plus the two service
      // gauges: how much is still queued and how much this drain coalesced.
      if (obs::metrics_enabled()) {
        const std::uint64_t drained_at = obs::now_ns();
        for (const PendingUpdate& p : pending) {
          if (p.enqueue_ns != 0) sh.queue_wait->record(drained_at - p.enqueue_ns);
        }
      }
      sh.depth_gauge->set(static_cast<std::int64_t>(sh.queue.size()));
      sh.coalesce_gauge->set(static_cast<std::int64_t>(pending.size()));

      // Split the drained FIFO into runs — a maximal stretch of ops local to
      // this shard, or one op that touches other shards (a merge, or an op
      // whose component migrated away after routing) — and apply each
      // through the one pipeline, which reports how many ops it consumed (0
      // when a racing migration changed the resolution: resolve again).
      std::size_t i = 0;
      while (i < pending.size()) {
        // Re-stamp between runs: a large drained batch can legitimately
        // process for longer than stall_timeout_ms, and the watchdog must
        // fence actual stalls, not long healthy batches. (An injected
        // batch_stall_ms still fences — the stall loop never reaches this
        // stamp.)
        sh.heartbeat_ns.store(mono_ns(), std::memory_order_release);
        i += apply_run(sh, std::span(pending).subspan(i),
                       involved_shards(sh, pending[i].update));
      }
      sh.busy.store(false, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    writer_crashed(sh, pending, e.what());
  }
}

void ShardRouter::writer_crashed(Shard& sh, std::vector<PendingUpdate>& pending,
                                 const char* what) {
  // Runs in the writer's catch block with every lock released by the unwind.
  // Tickets of the journaled-but-unacked batch (wal_pending) are durable —
  // recovery will ack them from the replay; everything else this writer had
  // drained was never accepted and acks kRetryable now.
  std::vector<UpdateTicket> journaled;
  {
    std::lock_guard lock(sh.mu);
    if (sh.wal_pending.has_value()) journaled = sh.wal_pending->tickets;
  }
  for (PendingUpdate& p : pending) {
    if (p.ticket.done()) continue;
    bool in_wal = false;
    for (const UpdateTicket& t : journaled) {
      if (p.ticket.same_ticket(t)) {
        in_wal = true;
        break;
      }
    }
    if (!in_wal) ack_retryable(sh, p.ticket);
  }
  std::fprintf(stderr,
               "pardfs: shard %zu writer crashed: %s (%s)\n", sh.id, what,
               sh.journal != nullptr ? "journal-replay recovery pending"
                                     : "no journal: degrading to reads-only");
  sh.busy.store(false, std::memory_order_release);
  // Last: the crashed flag is what the watchdog acts on, and it must find
  // the retryable sweep already done when it joins this thread.
  sh.crashed.store(true, std::memory_order_release);
}

// ---- the apply pipeline (DESIGN.md §12, §13) -------------------------------

std::size_t ShardRouter::apply_run(Shard& gateway,
                                   std::span<PendingUpdate> ops,
                                   const std::vector<std::size_t>& involved) {
  // 1. Lock ascending, re-verify. A directory entry pointing at a shard can
  // only change while that shard's engine lock is held, so a resolution
  // that survives verification under the locks is pinned until they drop.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(involved.size());
  for (const std::size_t s : involved) locks.emplace_back(shards_[s]->mu);
  if (involved_shards(gateway, ops[0].update) != involved) return 0;
  // The gateway's own run takes every following op still local to it
  // (classified under its lock, so it stays local through the apply); any
  // other run is the one op.
  const bool own = involved.size() == 1 && involved[0] == gateway.id;
  std::size_t len = 1;
  while (own && len < ops.size() && is_local(gateway, ops[len].update)) ++len;
  const std::span<PendingUpdate> run = ops.first(len);
  // A crashed shard's engine is poisoned state: nothing may touch it until
  // recovery has replayed its journal. kRetryable (rather than blocking on
  // the watchdog) keeps this queue draining; the client resubmits after
  // the failover. (Never the gateway itself: a crashed writer has exited.)
  for (const std::size_t s : involved) {
    if (shards_[s]->crashed.load(std::memory_order_acquire)) {
      for (const PendingUpdate& p : run) ack_retryable(gateway, p.ticket);
      return len;
    }
  }
  std::size_t winner = involved[0];
  try {
    apply_locked(gateway, run, involved, winner);
  } catch (const std::exception& e) {
    if (own) throw;
    recover_inline(gateway, run, involved, winner, e.what());
  }
  return len;
}

void ShardRouter::apply_locked(Shard& gateway, std::span<PendingUpdate> run,
                               const std::vector<std::size_t>& involved,
                               std::size_t& winner) {
  // Several involved shards means one merging op (apply_run never groups
  // those). Its endpoints drive steps 2 and 3, which a one-shard run skips.
  const bool merge = involved.size() > 1;
  const std::vector<Vertex> ends =
      merge ? endpoints(run[0].update) : std::vector<Vertex>{};
  std::vector<std::size_t> owner;  // owner[k]: the shard holding ends[k]
  for (const Vertex v : ends) {
    owner.push_back(static_cast<std::size_t>(directory_->get(v)));
  }

  // 2. Cross-shard pre-check, before anything migrates: every endpoint alive
  // in its own shard, no endpoint twice. Components are shard-disjoint, so
  // no existing edge spans shards: a cross-shard delete is infeasible.
  bool across_ok =
      !merge || run[0].update.kind != GraphUpdate::Kind::kDeleteEdge;
  for (std::size_t k = 0; across_ok && k < ends.size(); ++k) {
    across_ok = shards_[owner[k]]->dfs.graph().is_alive(ends[k]) &&
                std::find(ends.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                          ends.end(), ends[k]) == ends.end();
  }
  if (!across_ok) {
    reject(gateway, run[0].ticket);
    return;
  }

  // 3. Winner: the shard owning the largest involved component (tie: lower
  // shard id). Placement only — the forest content is identical whichever
  // shard hosts the merged component. Every other involved component
  // migrates into it by verbatim row transplant, deduplicated by (shard,
  // root): several endpoints may share a component.
  std::int32_t best_size = -1;
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const DynamicDfs& cand = shards_[owner[k]]->dfs;
    const std::int32_t size = cand.tree().size(cand.root_of(ends[k]));
    if (size > best_size || (size == best_size && owner[k] < winner)) {
      best_size = size;
      winner = owner[k];
    }
  }
  Shard& w = *shards_[winner];
  std::set<std::pair<std::size_t, Vertex>> seen;
  std::vector<Vertex> migrated;
  std::set<std::size_t> losers;
  for (std::size_t k = 0; k < ends.size(); ++k) {
    if (owner[k] == winner) continue;
    Shard& loser = *shards_[owner[k]];
    if (!seen.insert({owner[k], loser.dfs.root_of(ends[k])}).second) continue;
    DynamicDfs::ComponentTransfer t = loser.dfs.extract_component(ends[k]);
    // Journal both halves back-to-back with no faultable code between:
    // crashes in this design are C++ exceptions, so the two records are
    // atomic — replay sees the migration on both sides or on neither. The
    // loser's version_after is its single post-merge bump (one per op
    // however many components leave).
    if (loser.journal) loser.journal->record_extract(ends[k], loser.version + 1);
    if (w.journal) w.journal->record_adopt(t);
    migrated.insert(migrated.end(), t.vertices.begin(), t.vertices.end());
    w.dfs.adopt_component(std::move(t));
    losers.insert(owner[k]);
  }
  if (merge) {
    count_merge(gateway, seen.size());
    if (config_.enable_chaos) {
      chaos_site(static_cast<int>(chaos::FaultPoint::kMergeAbort), w);
    }
  }

  // 4. Ids and feasibility. Vertex inserts assign from the global id space:
  // hold the id lock (innermost) from the pad through the apply, so the
  // assigned ids are exactly the ones a single-shard run would hand out.
  // pad_capacity aligns the winner's graph so add_vertex lands on
  // global_next_ (a no-op at S == 1).
  const bool has_insert =
      std::any_of(run.begin(), run.end(), [](const PendingUpdate& p) {
        return p.update.kind == GraphUpdate::Kind::kInsertVertex;
      });
  std::unique_lock<std::mutex> id_lock;
  BatchDelta delta;
  delta.next_vertex = w.dfs.graph().capacity();
  if (has_insert) {
    id_lock = std::unique_lock(id_mu_);
    // The pad is journaled even if every insert then fails feasibility: the
    // live engine's capacity moved, so replay's must too (§13: the journal
    // mirrors every engine mutation, not every accepted update).
    const Vertex next = global_next_.load(std::memory_order_relaxed);
    if (w.journal) w.journal->record_pad(next);
    w.dfs.pad_capacity(next);
    delta.next_vertex = next;
  }
  std::vector<GraphUpdate> batch;
  std::vector<PendingUpdate*> accepted;
  for (PendingUpdate& p : run) {
    if (feasible(w, p.update, delta)) {
      batch.push_back(std::move(p.update));
      accepted.push_back(&p);
    } else {
      reject(gateway, p.ticket);
    }
  }
  if (batch.empty()) {
    // A merging op passed the pre-check and now lives in one shard, so the
    // filter cannot refuse it; a refused local run still checkpoints, as
    // the pad alone may have grown the journal.
    PARDFS_CHECK_MSG(!merge, "merging op refused after its migration");
    if (id_lock.owns_lock()) id_lock.unlock();
    maybe_checkpoint_locked(w);
    return;
  }

  // The WAL point: acceptance == journaled. The batch, its version and its
  // tickets are recorded before apply; a crash from here on recovers by
  // replay and acks these tickets with that version (exactly-once via
  // try_ack). There is deliberately no faultable code between the journal
  // record and the wal_pending entry. A merge's fault point was merge_abort
  // above; a run's are the stall, mid-batch and rebuild hooks.
  const bool run_chaos = config_.enable_chaos && !merge;
  if (run_chaos) chaos_stall(w, gateway);
  if (w.journal) {
    w.journal->record_apply(batch, w.version + 1,
                            w.updates_applied + batch.size());
    Shard::WalPending wal;
    wal.tickets.reserve(batch.size());
    wal.kinds.reserve(batch.size());
    for (const PendingUpdate* p : accepted) wal.tickets.push_back(p->ticket);
    for (const GraphUpdate& u : batch) wal.kinds.push_back(u.kind);
    wal.version = w.version + 1;
    w.wal_pending = std::move(wal);
  }
  // Reserve the assigned ids at the WAL point, not after the apply: the
  // record above holds inserts whose ids start at the old global_next_, so
  // the allocator must advance before any faultable code. A crash in the
  // apply below then cannot let another shard hand out the journaled ids
  // during the window before replay (which would ack the same id to two
  // clients). delta.next_vertex is exactly the capacity this batch leaves
  // behind: the pad to global_next_ plus one id per accepted insert.
  if (has_insert) {
    global_next_.store(delta.next_vertex, std::memory_order_release);
  }
  if (run_chaos) {
    chaos_site(static_cast<int>(chaos::FaultPoint::kWriterCrashMidBatch), w);
  }

  // 5. Apply.
  BatchStats bs;
  {
    const obs::Span apply_span("apply_batch");
    bs = w.dfs.apply_batch(batch);
  }
  if (run_chaos) {
    chaos_site(static_cast<int>(chaos::FaultPoint::kIndexRebuildThrow), w);
  }
  w.updates_applied += batch.size();
  ++w.version;
  for (const Vertex v : bs.new_vertices) {
    directory_->set(v, static_cast<std::int32_t>(winner));
  }

  // 6. Publish. The order keeps readers miss-free: the winner's snapshot
  // (which now holds the migrated components) goes out before the directory
  // flips, the losers' (which drop them) only after. A reader resolving
  // mid-protocol lands on a shard whose published snapshot still answers
  // for the vertex. A merge's id section ends once its new id is in the
  // directory; a local run's also covers its publish.
  if (merge && id_lock.owns_lock()) id_lock.unlock();
  publish(w);
  for (const Vertex v : migrated) {
    directory_->set(v, static_cast<std::int32_t>(winner));
  }
  for (const std::size_t s : losers) {
    ++shards_[s]->version;
    publish(*shards_[s]);
  }
  if (id_lock.owns_lock()) id_lock.unlock();

  // 7. Count, ack, checkpoint. Counting first means a wait()er's stats()
  // already reflect its update.
  count_batch(w, batch.size(), bs);
  count_publish(w);
  for (const std::size_t s : losers) count_publish(*shards_[s]);
  std::size_t next_new_vertex = 0;
  const std::uint64_t acked_at = obs::metrics_enabled() ? obs::now_ns() : 0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    Vertex assigned = kNullVertex;
    if (batch[i].kind == GraphUpdate::Kind::kInsertVertex) {
      assigned = bs.new_vertices[next_new_vertex++];
    }
    accepted[i]->ticket.ack(w.version, assigned);
    if (acked_at != 0 && accepted[i]->enqueue_ns != 0) {
      gateway.ack_latency->record(acked_at - accepted[i]->enqueue_ns);
    }
  }
  // Applied, published and acked: the WAL tickets are no longer pending,
  // and every journal this run appended to may truncate.
  w.wal_pending.reset();
  maybe_checkpoint_locked(w);
  for (const std::size_t s : losers) maybe_checkpoint_locked(*shards_[s]);
}

void ShardRouter::recover_inline(Shard& gateway, std::span<PendingUpdate> run,
                                 const std::vector<std::size_t>& involved,
                                 std::size_t first, const char* what) {
  std::fprintf(stderr,
               "pardfs: merge on shard %zu crashed: %s; recovering %zu "
               "shard(s) inline\n",
               gateway.id, what, involved.size());
  // The gateway's writer survives: the damaged engines are repaired here,
  // while their locks are still held (their own writers are alive, so the
  // watchdog could never join them). `first` is recovered before the rest
  // so the directory flips to the winner before any loser republishes
  // without the migrated component (miss-free reads, as in apply_locked).
  std::vector<std::size_t> order{first};
  for (const std::size_t s : involved) {
    if (s != first) order.push_back(s);
  }
  for (const std::size_t s : order) {
    Shard& damaged = *shards_[s];
    const std::uint64_t t0 = mono_ns();
    try {
      recover_shard_locked(damaged);
      count_recovery(damaged, t0);
    } catch (const std::exception& e) {
      // Replay itself failed: the shard degrades to reads-only. Its own
      // writer stays alive but is poisoned, so the next work it drains
      // converts to a crash and its tickets flush kRetryable; crashed is
      // NOT set here (the writer is alive — the watchdog must not try to
      // join it).
      std::fprintf(stderr, "pardfs: inline recovery of shard %zu failed: %s\n",
                   s, e.what());
      damaged.poison.store(true, std::memory_order_release);
      damaged.unrecoverable.store(true, std::memory_order_release);
      flush_wal_retryable(damaged);
    }
  }
  for (const PendingUpdate& p : run) ack_retryable(gateway, p.ticket);
}

// ---- event counts ----------------------------------------------------------

void ShardRouter::count_batch(Shard& sh, std::size_t size,
                              const BatchStats& bs) {
  Shard::Counts& c = sh.counts;
  bump(c.batches);
  bump(c.updates_applied, size);
  std::uint64_t largest = c.max_batch.load(std::memory_order_relaxed);
  while (size > largest && !c.max_batch.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  bump(c.structural, bs.structural);
  bump(c.back_edges, bs.back_edges);
  bump(c.segments, bs.segments);
  bump(c.index_rebuilds, bs.index_rebuilds);
  bump(c.base_rebuilds, bs.base_rebuilds);
}

void ShardRouter::count_publish(Shard& sh) {
  bump(sh.counts.snapshots_published);
}

void ShardRouter::count_merge(Shard& gateway, std::uint64_t migrations) {
  bump(gateway.counts.cross_shard_inserts);
  bump(gateway.counts.shard_migrations, migrations);
}

void ShardRouter::count_recovery(Shard& sh, std::uint64_t started_ns) {
  bump(sh.counts.recoveries);
  recovery_latency_hist().record(mono_ns() - started_ns);
}

void ShardRouter::reject(Shard& gateway, const UpdateTicket& ticket) {
  bump(gateway.counts.updates_rejected);
  ticket.ack(UpdateTicket::kRejected);
}

void ShardRouter::ack_retryable(Shard& sh, const UpdateTicket& ticket) {
  if (ticket.try_ack(UpdateTicket::kRetryable)) {
    bump(sh.counts.retryable_acks);
  }
}

void ShardRouter::flush_wal_retryable(Shard& sh) {
  if (!sh.wal_pending.has_value()) return;
  for (const UpdateTicket& t : sh.wal_pending->tickets) ack_retryable(sh, t);
  sh.wal_pending.reset();
}

// ---- supervision (DESIGN.md §13) -------------------------------------------

void ShardRouter::inject_writer_failure(std::size_t shard) {
  shards_[shard]->poison.store(true, std::memory_order_release);
}

// Chaos helpers. Both are called only when config_.enable_chaos is set, and
// compile down to a locked no-op lookup unless PARDFS_ENABLE_CHAOS is on.
void ShardRouter::chaos_site(int point, Shard& target) {
  const chaos::FaultAction a =
      chaos::hit(static_cast<chaos::FaultPoint>(point), target.id);
  switch (a.kind) {
    case chaos::FaultAction::Kind::kCrash:
      throw chaos::InjectedCrash(std::string("chaos: ") +
                                 chaos::point_name(
                                     static_cast<chaos::FaultPoint>(point)));
    case chaos::FaultAction::Kind::kThrow:
      throw chaos::InjectedCrash("chaos: index rebuild failed");
    default:
      return;
  }
}

// batch_stall_ms: sleep in slices, checking for the watchdog's fence (and
// shutdown) between slices — a stalled-then-fenced writer converts to a
// crash, which the journal makes lossless.
void ShardRouter::chaos_stall(Shard& target, Shard& gateway) {
  const chaos::FaultAction a =
      chaos::hit(chaos::FaultPoint::kBatchStallMs, target.id);
  if (a.kind != chaos::FaultAction::Kind::kStall) return;
  const std::uint64_t end = mono_ns() + std::uint64_t{a.param} * 1000000ULL;
  while (mono_ns() < end) {
    if (gateway.fenced.load(std::memory_order_acquire)) {
      throw chaos::InjectedCrash("chaos: stalled writer fenced");
    }
    {
      std::lock_guard lock(control_mu_);
      if (stopped_) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ShardRouter::watchdog_loop() {
  // Replays run on this thread; engine checks tripped during them must
  // throw (and be caught below), not abort.
  const ScopedRecoverableChecks recoverable;
  for (;;) {
    {
      std::unique_lock lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock,
                            std::chrono::milliseconds(config_.watchdog_poll_ms),
                            [&] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.unrecoverable.load(std::memory_order_acquire)) continue;
      if (sh.crashed.load(std::memory_order_acquire)) {
        try {
          recover_shard(sh, /*respawn=*/true);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "pardfs: recovery of shard %zu failed: %s; shard "
                       "degrades to reads-only\n",
                       sh.id, e.what());
          abandon_shard(sh);
        }
        continue;
      }
      // Stall detection: busy (a drained batch is processing) with a
      // heartbeat older than the bound. The fence is advisory — the writer
      // converts it to a crash at its next cancellation point; a thread
      // truly stuck in a syscall cannot be reclaimed portably, but its shard
      // keeps serving reads regardless.
      if (config_.stall_timeout_ms != 0 &&
          sh.busy.load(std::memory_order_acquire)) {
        const std::uint64_t hb = sh.heartbeat_ns.load(std::memory_order_acquire);
        if (hb != 0 &&
            mono_ns() - hb >
                std::uint64_t{config_.stall_timeout_ms} * 1000000ULL &&
            !sh.fenced.exchange(true, std::memory_order_acq_rel)) {
          stalls_counter().add();
        }
      }
    }
  }
}

void ShardRouter::recover_shard(Shard& sh, bool respawn) {
  // Callable from the watchdog or from stop() (a user thread): either way
  // the replay is a recoverable failure domain, not an abort.
  const ScopedRecoverableChecks recoverable;
  const std::uint64_t t0 = mono_ns();
  // The crashed writer has set sh.crashed as its last act; join reclaims the
  // thread object so a fresh writer can take its place.
  if (sh.writer.joinable()) sh.writer.join();
  {
    std::lock_guard lock(sh.mu);
    recover_shard_locked(sh);
  }
  count_recovery(sh, t0);
  bool respawn_now = respawn;
  {
    std::lock_guard lock(control_mu_);
    if (stopped_) respawn_now = false;
    if (respawn_now) {
      // Under control_mu_ so this assignment cannot race stop()'s join loop:
      // stop() joins the watchdog (us) before touching writer threads, and
      // once it has set stopped_ we never assign again.
      sh.writer = std::thread([this, shard = &sh] { writer_loop(*shard); });
    }
  }
}

void ShardRouter::maybe_checkpoint_locked(Shard& sh) {
  if (sh.journal == nullptr || config_.journal_checkpoint_entries == 0) return;
  if (sh.wal_pending.has_value()) return;  // journal ahead of the engine
  if (sh.journal->entries() < config_.journal_checkpoint_entries) return;
  {
    obs::ScopedPhase timer(checkpoint_hist(), "journal_checkpoint");
    sh.journal->checkpoint(sh.dfs.graph(), sh.dfs.parent(), sh.version,
                           sh.updates_applied);
  }
  checkpoints_counter().add();
}

void ShardRouter::abandon_shard(Shard& sh) {
  sh.unrecoverable.store(true, std::memory_order_release);
  std::lock_guard lock(sh.mu);
  flush_wal_retryable(sh);
}

void ShardRouter::recover_shard_locked(Shard& sh) {
  if (sh.journal == nullptr) {
    // No journal, no replay: the shard stays degraded (reads keep serving
    // the last published snapshot; its queue is flushed kRetryable at
    // stop()). Clearing crashed would invite writers onto a damaged engine.
    throw InvariantViolation("shard has no journal to replay");
  }
  UpdateJournal::ReplayResult r = sh.journal->replay();
  // Swap the damaged engine for the replayed twin. Determinism (§12) makes
  // the replacement byte-identical to the engine a crash-free history would
  // have produced; snapshots sharing state with the old engine keep it alive
  // via shared_ptr until their readers drop them.
  sh.dfs = std::move(r.engine);
  sh.version = r.version;
  sh.updates_applied = r.updates_applied;
  // Re-point the directory at everything alive here. This both repairs a
  // merge interrupted between journal record and directory flip (migrated
  // vertices resolve to the winner as soon as it republishes) and is a no-op
  // for entries that already point here. Entries for ids that died on this
  // shard keep pointing here, preserving query totality.
  const Graph& g = sh.dfs.graph();
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (g.is_alive(v)) directory_->set(v, static_cast<std::int32_t>(sh.id));
  }
  {
    // Ids are reserved at the WAL point, so every journaled insert's id is
    // already below global_next_ and this is a no-op; kept as a defensive
    // floor in case the id space ever lags a replayed capacity.
    std::lock_guard id_lock(id_mu_);
    if (g.capacity() > global_next_.load(std::memory_order_relaxed)) {
      global_next_.store(g.capacity(), std::memory_order_release);
    }
  }
  publish(sh);
  count_publish(sh);
  // WAL acks: the journaled-but-unacked batch was replayed above, so its
  // tickets resolve to the recorded version (with the replayed insert ids).
  // try_ack keeps this exactly-once against the crash-time kRetryable sweep.
  if (sh.wal_pending.has_value()) {
    std::size_t next_new_vertex = 0;
    for (std::size_t i = 0; i < sh.wal_pending->tickets.size(); ++i) {
      Vertex assigned = kNullVertex;
      if (sh.wal_pending->kinds[i] == GraphUpdate::Kind::kInsertVertex &&
          next_new_vertex < r.last_new_vertices.size()) {
        assigned = r.last_new_vertices[next_new_vertex++];
      }
      sh.wal_pending->tickets[i].try_ack(sh.wal_pending->version, assigned);
    }
    sh.wal_pending.reset();
  }
  sh.fenced.store(false, std::memory_order_release);
  sh.poison.store(false, std::memory_order_release);
  sh.crashed.store(false, std::memory_order_release);
  // A long journal just replayed in full: truncate it now so a repeated
  // crash replays only from here, not from genesis again.
  maybe_checkpoint_locked(sh);
}

// ---- RouterView ------------------------------------------------------------

SnapshotPtr RouterView::snapshot_of(Vertex v) const {
  const int s = router_->shard_of(v);
  return s < 0 ? nullptr : router_->shard_snapshot(static_cast<std::size_t>(s));
}

bool RouterView::contains(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr && snap->contains(v);
}

Vertex RouterView::parent_of(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->parent_of(v) : kNullVertex;
}

Vertex RouterView::root_of(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->root_of(v) : kNullVertex;
}

std::int32_t RouterView::depth(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->depth(v) : -1;
}

std::int32_t RouterView::subtree_size(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->subtree_size(v) : 0;
}

bool RouterView::is_ancestor(Vertex a, Vertex d) const {
  const int sa = router_->shard_of(a);
  const int sd = router_->shard_of(d);
  // Different shards own different components: no ancestry across them.
  if (sa < 0 || sa != sd) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(sa))
      ->is_ancestor(a, d);
}

Vertex RouterView::lca(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return kNullVertex;
  return router_->shard_snapshot(static_cast<std::size_t>(su))->lca(u, v);
}

bool RouterView::same_component(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(su))
      ->same_component(u, v);
}

std::vector<Vertex> RouterView::path_to_root(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr ? snap->path_to_root(v) : std::vector<Vertex>{};
}

bool RouterView::is_articulation(Vertex v) const {
  const SnapshotPtr snap = snapshot_of(v);
  return snap != nullptr && snap->is_articulation(v);
}

bool RouterView::is_bridge(Vertex u, Vertex v) const {
  const int su = router_->shard_of(u);
  const int sv = router_->shard_of(v);
  if (su < 0 || su != sv) return false;
  return router_->shard_snapshot(static_cast<std::size_t>(su))->is_bridge(u, v);
}

std::vector<Edge> RouterView::bridges() const {
  std::vector<Edge> out;
  for (std::size_t s = 0; s < router_->num_shards(); ++s) {
    const auto span = router_->shard_snapshot(s)->bridges();
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

}  // namespace pardfs::service
