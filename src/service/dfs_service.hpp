// Concurrent snapshot-serving layer over DynamicDfs — the read-mostly
// deployment shape the paper's design is built for (ROADMAP north star).
//
// Since the sharding refactor (DESIGN.md §12) DfsService is a thin façade
// over a single-shard ShardRouter: the router owns the writer thread, the
// MPSC UpdateQueue, the feasibility filter and the RCU snapshot publication;
// at num_shards == 1 its writer path is the exact historical single-writer
// pipeline (same batching, same metric series, same ack semantics). This
// class keeps the one-graph API — snapshot() as a single atomic load —
// that the tests, benches and tools grew against. Multi-shard deployments
// construct a ShardRouter directly (service/shard_router.hpp).
//
// One writer thread owns the DynamicDfs instance. It drains the MPSC
// UpdateQueue, coalescing whatever is pending (up to ServiceConfig::max_batch,
// by default the whole queue) into one batch, applies it through
// DynamicDfs::apply_batch — one combined reduction, one engine pass, one
// O(n) index rebuild for the whole batch, however large —
// and publishes a fresh immutable DfsSnapshot through a single
// std::atomic<std::shared_ptr>. Readers call snapshot() — one atomic load,
// never blocked by the writer's batch work — and answer is_ancestor / lca /
// path_to_root / root_of / same_component queries against a forest that
// cannot change under them. The harder the update load, the larger the
// coalesced batches and the better the per-update amortization: the service
// degrades by batching more, not by queueing reads.
//
// Feasibility is checked at the service boundary (clients race each other:
// by the time an update drains, another may have deleted its endpoint).
// Infeasible updates are acknowledged with UpdateTicket::kRejected instead
// of aborting the writer; accepted updates are acknowledged with the version
// of the first snapshot that reflects them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "service/shard_router.hpp"

namespace pardfs::service {

class DfsService {
 public:
  // config.num_shards must be 1 (the default): this façade serves the
  // single-snapshot API. Use ShardRouter directly for num_shards > 1.
  explicit DfsService(Graph initial, ServiceConfig config = {});

  DfsService(const DfsService&) = delete;
  DfsService& operator=(const DfsService&) = delete;

  // ---- reader side ---------------------------------------------------------
  // The latest published snapshot: one atomic shared_ptr load, any number of
  // concurrent callers, never blocked by in-flight batches.
  SnapshotPtr snapshot() const { return router_.shard_snapshot(0); }

  // ---- producer side -------------------------------------------------------
  // Blocks while the queue is full (backpressure). After stop() the ticket
  // comes back already acknowledged as kRejected (always safe to wait() on).
  UpdateTicket submit(GraphUpdate update) {
    return router_.submit(std::move(update));
  }
  bool try_submit(GraphUpdate update, UpdateTicket* ticket) {
    return router_.try_submit(std::move(update), ticket);
  }
  // submit + wait: returns the publishing version or UpdateTicket::kRejected.
  std::uint64_t apply_sync(GraphUpdate update) {
    return router_.apply_sync(std::move(update));
  }

  // ---- lifecycle -----------------------------------------------------------
  // After pause() returns, no further batch is applied or published until
  // resume() (a batch already mid-apply completes; updates the writer had
  // already drained are held back un-applied).
  void pause() { router_.pause(); }
  void resume() { router_.resume(); }
  // Closes the queue, lets the writer drain every pending update (all
  // tickets get acknowledged), and joins it. Idempotent.
  void stop() { router_.stop(); }

  ServiceStats stats() const { return router_.stats(); }
  std::size_t queue_depth() const { return router_.queue_depth(); }

  // ---- failure injection (DESIGN.md §13) -----------------------------------
  // Poisons the writer: it crashes at its next drained work and — with the
  // journal on (the default) — the watchdog fails it over by journal replay.
  // Poll stats().recoveries for completion. Available in every build.
  void inject_writer_failure() { router_.inject_writer_failure(0); }

  // ---- observability -------------------------------------------------------
  // Point-in-time dump of the process-wide obs registry (DESIGN.md §11),
  // plus this service's own event counts (stats()): Prometheus exposition
  // text / one JSON object. Callable from any thread while the service runs;
  // the registry is process-global, so the page also carries the core's
  // phase histograms and engine counters.
  std::string metrics_text() const { return router_.metrics_text(); }
  std::string metrics_json() const { return router_.metrics_json(); }

  // The underlying engine — owned by the writer thread while the service
  // runs; only safe to inspect after stop().
  const DynamicDfs& core() const { return router_.core(0); }

  // The router underneath (e.g. for RouterView-based readers).
  const ShardRouter& router() const { return router_; }
  ShardRouter& router() { return router_; }

 private:
  ShardRouter router_;
};

}  // namespace pardfs::service
