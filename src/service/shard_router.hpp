// Component-sharded serving layer: S independent writer stacks behind one
// vertex -> shard directory (DESIGN.md §12).
//
// The paper's forest decomposes into per-component trees that never interact
// except when an update joins two components. The router exploits exactly
// that: vertices are partitioned by connected component across S shards, each
// shard running the full single-writer stack of dfs_service.hpp — its own
// UpdateQueue, its own DynamicDfs over a full-id-space graph in which it owns
// whole components (every other id is a dead hole), and its own RCU snapshot.
// Readers resolve the owning shard from the directory and load that shard's
// snapshot — one extra atomic load versus the unsharded service, no global
// epoch, no cross-shard stalls.
//
// Every update goes through one apply pipeline (ShardRouter::apply_run). The
// op is queued on its *gateway* shard (the smallest endpoint shard at submit
// time). The gateway's writer groups what it drains into runs — a maximal
// stretch of ops local to it, or one op that touches other shards — and for
// each run locks the involved shards in ascending shard-id order, re-verifies
// the directory (an entry pointing at a shard can only change under that
// shard's engine lock, so verification under the locks is stable), checks
// feasibility, migrates every component but the largest into the winning
// shard by verbatim row transplant (DynamicDfs::extract_component /
// adopt_component), journals, applies, and publishes in the order winner ->
// directory flip -> losers so readers never observe a miss window. A local
// run is the one-shard case: nothing migrates. Forest determinism: a
// component's adjacency rows — and therefore its DFS tree — evolve
// identically whether it lives in one shard or another, so the assembled
// forest is byte-identical at any shard count.
//
// Deadlock freedom: engine locks are only ever acquired in ascending
// shard-id order while holding no other engine lock; the global id lock
// (vertex-insert id assignment) is strictly innermost; the control lock
// (pause/stats) is never held across an engine lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "service/snapshot.hpp"
#include "service/update_queue.hpp"

namespace pardfs::service {

class ShardRouter;

struct ServiceConfig {
  std::size_t queue_capacity = 4096;
  // Coalescing cap per drain; 0 = the core's epoch period (Θ(log n), the
  // largest batch the Theorem 9 patch budget absorbs in one segment).
  std::size_t max_batch = 0;
  RerootStrategy strategy = RerootStrategy::kPaper;
  // Worker-team cap for the rerooting engine's parallel rounds (0 = the pram
  // facade default). Purely a wall-clock knob: the served forest is
  // identical at any value.
  int num_threads = 0;
  // Start with the writers paused (updates queue up; nothing applies until
  // resume()). Lets tests and benchmarks pin coalescing deterministically.
  bool start_paused = false;
  // Compute core/articulation's CutStructure at every publish so snapshots
  // answer articulation / bridge queries (the dynamic_map workload's client
  // vocabulary). Costs one O(m + n) low-link pass per published batch —
  // off by default so update-heavy deployments don't pay it.
  bool serve_cuts = false;
  // Component-partitioned shards, one writer stack each (clamped to >= 1).
  // 1 = the exact unsharded behavior, including the legacy unlabeled metric
  // series; > 1 labels the service series with shard="<id>".
  std::size_t num_shards = 1;

  // ---- robustness (DESIGN.md §13) ------------------------------------------
  // Keep a per-shard write-ahead journal (service/journal.hpp). Required for
  // crash recovery: with it off, a crashed shard stays degraded — reads keep
  // serving its last published snapshot, writes to it queue or shed.
  bool enable_journal = true;
  // Non-empty: each shard also appends a human-readable journal line to
  // "<prefix><shard>.log" (post-mortem aid; replay never reads it).
  std::string journal_path_prefix;
  // Checkpoint a shard's journal once it holds this many entries: the
  // engine's current state (graph + forest + version) becomes the new replay
  // base and the entry prefix is dropped, bounding per-shard journal memory
  // and failover replay time by work since the last checkpoint instead of
  // total history. 0 = never checkpoint (journal grows with total history).
  std::size_t journal_checkpoint_entries = 256;
  // Watchdog poll period. The watchdog detects crashed writers (poisoned by
  // an escaped invariant or an injected fault) and fails them over by
  // journal replay on a fresh thread. 0 = no watchdog: degradation only,
  // recovery happens at stop().
  std::uint32_t watchdog_poll_ms = 20;
  // A writer mid-batch whose heartbeat is older than this is declared
  // stalled: the watchdog fences it (pardfs_writer_stalls_total) and the
  // writer converts to a crash at its next cancellation point. The writer
  // re-stamps its heartbeat between ops within a drained batch, so the
  // bound covers a single run/special, not the whole batch — a healthy
  // writer chewing through a large batch is not fenced. 0 = off.
  std::uint32_t stall_timeout_ms = 10000;
  // Admission control: submits shed with kOverloaded when the target shard's
  // queue holds >= max_queue_depth updates (0 = off), or when its snapshot
  // is older than max_staleness_ms with work still queued (0 = off).
  std::size_t max_queue_depth = 0;
  std::uint32_t max_staleness_ms = 0;
  // Consult the process-wide chaos plan (testing/chaos.hpp) at this router's
  // hook sites. No-op unless the build defines PARDFS_ENABLE_CHAOS; kept off
  // for reference stacks so differential runs fault only the subject.
  bool enable_chaos = false;
};

struct ServiceStats {
  std::uint64_t batches = 0;             // apply_batch calls
  std::uint64_t updates_applied = 0;     // accepted updates
  std::uint64_t updates_rejected = 0;    // infeasible at drain time
  std::uint64_t snapshots_published = 0; // excludes the constructor's
  std::uint64_t max_batch = 0;           // largest coalesced batch so far
  std::uint64_t structural = 0;          // accepted structural updates
  std::uint64_t back_edges = 0;          // accepted patch-only updates
  std::uint64_t segments = 0;            // combined engine passes
  std::uint64_t index_rebuilds = 0;      // O(n) rebuilds across all batches
  std::uint64_t base_rebuilds = 0;       // epoch rebases across all batches
  // kRejected acks that never reach a writer: submits that lost the race
  // against stop() and were pre-rejected by the queue. Not part of
  // updates_rejected, which counts the drain-time infeasible rejections.
  std::uint64_t rejected_shutdown = 0;
  // Sharding: components migrated between shards, and cross-shard inserts
  // that went through the merge protocol. Always zero at num_shards == 1.
  std::uint64_t shard_migrations = 0;
  std::uint64_t cross_shard_inserts = 0;
  // Robustness (DESIGN.md §13): completed journal-replay failovers, tickets
  // acked kRetryable (lost to a crash before journaling), and submits shed
  // kOverloaded by admission control.
  std::uint64_t recoveries = 0;
  std::uint64_t retryable_acks = 0;
  std::uint64_t overload_sheds = 0;
};

// Reader-side handle: resolves the owning shard per query and answers from
// that shard's current snapshot. All queries are total, like DfsSnapshot's.
// Two-vertex queries across shards answer the component-disjoint defaults
// (different shards own different components by construction): reachable /
// same_component / is_ancestor / is_bridge -> false, lca -> kNullVertex.
// Each query reads the owner's snapshot at its own resolve time, so a
// multi-query read is not one consistent global cut — per-shard reads are.
// The router must outlive every view.
class RouterView {
 public:
  bool contains(Vertex v) const;
  Vertex parent_of(Vertex v) const;
  Vertex root_of(Vertex v) const;
  std::int32_t depth(Vertex v) const;
  std::int32_t subtree_size(Vertex v) const;
  bool is_ancestor(Vertex a, Vertex d) const;
  Vertex lca(Vertex u, Vertex v) const;
  bool same_component(Vertex u, Vertex v) const;
  bool reachable(Vertex u, Vertex v) const { return same_component(u, v); }
  std::vector<Vertex> path_to_root(Vertex v) const;
  bool is_articulation(Vertex v) const;
  bool is_bridge(Vertex u, Vertex v) const;
  // Bridges of every shard's current snapshot, concatenated in shard order.
  std::vector<Edge> bridges() const;

  // The owning shard's current snapshot (nullptr for ids the directory has
  // never seen). One directory load + one snapshot load.
  SnapshotPtr snapshot_of(Vertex v) const;

 private:
  friend class ShardRouter;
  explicit RouterView(const ShardRouter* router) : router_(router) {}
  const ShardRouter* router_;
};

class ShardRouter {
 public:
  // Partitions `initial`'s components across config.num_shards stacks
  // (round-robin over components in ascending root id), publishes every
  // shard's initial snapshot, then starts the writers.
  explicit ShardRouter(Graph initial, ServiceConfig config = {});
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // ---- reader side ---------------------------------------------------------
  RouterView view() const { return RouterView(this); }
  // The shard currently owning v: -1 if the id was never assigned. Entries
  // persist after a vertex dies (pointing at the shard where it died), so
  // totality of snapshot queries is preserved.
  int shard_of(Vertex v) const;
  SnapshotPtr shard_snapshot(std::size_t shard) const;

  // ---- producer side -------------------------------------------------------
  // Routed to the owning shard's queue (cross-shard ops to the gateway =
  // smallest involved shard; the gateway writer runs the merge protocol).
  // Blocks while that queue is full. Acks carry the publishing version of
  // the shard that applied the update — versions are per shard.
  UpdateTicket submit(GraphUpdate update);
  bool try_submit(GraphUpdate update, UpdateTicket* ticket);
  std::uint64_t apply_sync(GraphUpdate update);

  // ---- lifecycle (all shards) ----------------------------------------------
  void pause();
  void resume();
  void stop();

  // ---- stats / introspection -----------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }
  ServiceStats stats() const;                    // summed across shards
  ServiceStats shard_stats(std::size_t shard) const;
  std::size_t queue_depth() const;               // summed across shards
  std::size_t queue_depth(std::size_t shard) const;
  // The global id space (next id a vertex insert would get): one acquire
  // load, never the id lock, so read sessions do not wait on a writer that
  // holds it through an apply. Ids are reserved at the WAL point, before
  // their batch is applied and published, so ids below the returned value
  // may not be published yet: the directory answers -1 for them and
  // snapshot queries on them are total, which is all readers rely on.
  Vertex capacity() const;
  Vertex num_vertices() const;     // summed over current shard snapshots
  std::int64_t num_edges() const;  // summed over current shard snapshots

  // Whole-forest reads assembled from the current shard snapshots, indexed
  // by global id (kNullVertex / 0 for unassigned ids). Only meaningful when
  // the router is quiescent (no in-flight updates); tests use them to
  // compare against a single-shard run byte for byte.
  std::vector<Vertex> assemble_parent() const;
  std::vector<std::uint8_t> assemble_alive() const;

  std::string metrics_text() const;
  std::string metrics_json() const;

  // A shard's engine — owned by its writer while the router runs; only safe
  // to inspect after stop().
  const DynamicDfs& core(std::size_t shard) const;

  // ---- failure injection / supervision (DESIGN.md §13) ---------------------
  // Poisons `shard`'s writer: it throws at its next cancellation point (right
  // after draining work), exercising the full crash -> journal-replay ->
  // respawn path. Works in every build (unlike the chaos hooks, which need
  // PARDFS_ENABLE_CHAOS); tests and ops drills use it. Takes effect when the
  // writer next drains work; poll stats().recoveries for completion.
  void inject_writer_failure(std::size_t shard);

 private:
  struct Shard;
  // Lock-free chunked vertex -> shard directory. Readers load two acquire
  // atomics; mutations happen only under the owning shard's engine lock (or
  // the id lock for brand-new ids), which is what makes the merge protocol's
  // verify-after-lock stable.
  class Directory;

  // Drains the shard's queue and hands each run to apply_run (see the header
  // comment); the shard's own runs crash into writer_crashed.
  void writer_loop(Shard& sh);
  // The shards an op touches, ascending: {gateway} when it is local there
  // (every endpoint resolves to the gateway, or one never existed and the
  // feasibility filter rejects the op), else its endpoints' owners. Stable
  // while the returned shards' engine locks are held.
  std::vector<std::size_t> involved_shards(const Shard& gateway,
                                           const GraphUpdate& u) const;
  bool is_local(const Shard& gateway, const GraphUpdate& u) const;

  // ---- the apply pipeline (DESIGN.md §12, §13) ------------------------------
  // Applies the run that starts `ops` (queued on `gateway`; ops[0] resolved
  // to `involved`): locks the involved shards ascending, re-verifies ops[0],
  // takes the run — for the gateway's own run, every following op still
  // local to it; otherwise ops[0] alone — and runs apply_locked. Returns the
  // run's length, or 0, having touched nothing, when a migration raced the
  // resolve; the caller re-resolves. Failure domains: a crash in the
  // gateway's own run ({gateway} == involved) propagates to its writer and
  // the watchdog; any other crash is repaired inline by recover_inline
  // before the gateway moves on.
  std::size_t apply_run(Shard& gateway, std::span<PendingUpdate> ops,
                        const std::vector<std::size_t>& involved);
  // Steps 2–7 under the locks: cross-shard pre-check, migration into the
  // winner (set in `winner` as soon as it is chosen), id pad + feasibility
  // filter, journal + id reservation (the WAL point), apply, publish, count,
  // ack, checkpoint.
  void apply_locked(Shard& gateway, std::span<PendingUpdate> run,
                    const std::vector<std::size_t>& involved,
                    std::size_t& winner);
  // Replays every involved shard's journal, `first` (the winner) before the
  // rest, then acks the run kRetryable. A shard whose replay fails degrades
  // to reads-only. Caller holds every involved engine lock.
  void recover_inline(Shard& gateway, std::span<PendingUpdate> run,
                      const std::vector<std::size_t>& involved,
                      std::size_t first, const char* what);
  // Publishes sh's current engine state. Caller holds sh.mu.
  void publish(Shard& sh, bool forest_unchanged);

  struct BatchDelta;
  bool feasible(const Shard& sh, const GraphUpdate& u, BatchDelta& delta) const;

  // ---- event counts ---------------------------------------------------------
  // One helper per event, each bumping the shard's ServiceStats (or its
  // atomic) and the registry mirror together, before the ack goes out.
  void count_batch(Shard& sh, std::size_t size, const BatchStats& bs);
  void count_publish(Shard& sh);
  void count_merge(Shard& gateway, std::uint64_t migrations);
  void count_recovery(Shard& sh, std::uint64_t started_ns);
  // Counts an infeasible op against `gateway` and acks it kRejected.
  void reject(Shard& gateway, const UpdateTicket& ticket);
  // Acks kRetryable unless the ticket already resolved; counts only a win.
  void ack_retryable(Shard& sh, const UpdateTicket& ticket);
  // Acks sh's journaled-but-unapplied tickets kRetryable: the shard gave up
  // on replaying them. Caller holds sh.mu.
  void flush_wal_retryable(Shard& sh);

  // ---- supervision (DESIGN.md §13) ------------------------------------------
  // Crash epilogue, run in the writer's catch block: acks drained-but-not-
  // journaled tickets kRetryable and marks the shard crashed for the
  // watchdog. `pending` is the writer's drained-but-unprocessed work.
  void writer_crashed(Shard& sh, std::vector<PendingUpdate>& pending,
                      const char* what);
  // Watchdog: polls for crashed/stalled writers, recovers them.
  void watchdog_loop();
  // Joins the dead writer, replays the journal under sh.mu, republishes,
  // acks wal-pending tickets, optionally respawns a fresh writer.
  void recover_shard(Shard& sh, bool respawn);
  // The replay core; caller holds sh.mu and has joined (or never started)
  // the shard's writer. Throws if the shard has no journal (or replay fails).
  void recover_shard_locked(Shard& sh);
  // Recovery gave up on this shard: mark it unrecoverable (degraded to
  // reads-only) and flush its wal-pending tickets kRetryable so no client
  // waits forever on a shard that will never ack.
  void abandon_shard(Shard& sh);
  // Journal truncation (DESIGN.md §13): once sh's entry log passes
  // config_.journal_checkpoint_entries, capture the engine's current state
  // as the new replay base and drop the prefix. Caller holds sh.mu with no
  // wal-pending batch, so the journal is exactly in sync with the engine.
  void maybe_checkpoint_locked(Shard& sh);
  // Admission control + chaos queue_full: true => *out is a pre-acked
  // kOverloaded ticket and the update must not enqueue.
  bool shed_overloaded(Shard& sh, UpdateTicket* out);
  // Chaos hook helpers (inline no-ops without PARDFS_ENABLE_CHAOS). `site`
  // throws InjectedCrash on a crash/throw action; `stall` sleeps in fenced-
  // checkable slices. Both keyed by target.id; no-ops when enable_chaos is
  // false for this router.
  void chaos_site(int point, Shard& target);
  void chaos_stall(Shard& target, Shard& gateway);
  // The shard whose queue carries this op (see submit()).
  std::size_t route(const GraphUpdate& u) const;

  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Directory> directory_;

  // Global id space: vertex inserts on any shard assign from here so ids
  // stay unique (and identical to a single-shard run). Innermost lock.
  // global_next_ is written only under id_mu_; it is atomic so capacity()
  // can read it without the lock.
  mutable std::mutex id_mu_;
  std::atomic<Vertex> global_next_{0};
  // Round-robin spreading of isolated vertex inserts (routing only: the
  // forest is placement-independent).
  mutable std::atomic<std::uint64_t> isolated_rr_{0};

  mutable std::mutex control_mu_;  // pause flag + stats; never held across engine locks
  std::condition_variable control_cv_;
  bool paused_ = false;
  bool stopped_ = false;

  // Supervision (DESIGN.md §13). The watchdog has its own wait channel so
  // stop() can wake it promptly without touching control_mu_ ordering.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

}  // namespace pardfs::service
