// Service workload scenarios — the shared driver behind the stress tests,
// examples and bench_service, so all three exercise the same traffic shapes:
//
//   * read-heavy        — dense-ish connected graph, light edge flip churn;
//                         the RCU sweet spot (95% reads).
//   * insert-churn      — growing graph, insert-dominated mix with vertex
//                         arrivals; stresses batch segmentation and the
//                         oracle's Theorem 9 patch lists.
//   * adversarial-star  — star center edge churn over a leaf ring: every
//                         structural update reroots Θ(n) subtrees, the case
//                         where sequential rerooting degenerates (§4).
//   * social-mix        — Barabási–Albert power-law graph under a mixed
//                         update stream; hub churn plus vertex arrivals and
//                         departures, the "millions of users" shape.
//   * dynamic-map       — roadmap grid where obstacle appearance deletes a
//                         cell's vertex and clearance restores it (a fresh
//                         id wired to the open 4-neighbors); clients ask
//                         reachability / articulation questions against
//                         snapshots (serve_cuts). The marine path-planner
//                         shape from the ROADMAP.
//
// The driver owns a mirror graph and only emits updates feasible against it,
// so a single producer can feed a DfsService (or DynamicDfs::apply_batch
// directly) without ever tripping a rejection. Fully deterministic per seed
// (pinned by tests/test_workload.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/update_queue.hpp"
#include "util/random.hpp"

namespace pardfs::service {

enum class Scenario : std::uint8_t {
  kReadHeavy,
  kInsertChurn,
  kAdversarialStar,
  kSocialMix,
  kDynamicMap,
};

const char* scenario_name(Scenario s);

// Fraction of client operations that are snapshot reads in the scenario's
// canonical mix (benchmarks interleave reads accordingly).
double read_fraction(Scenario s);

struct WorkloadSpec {
  Scenario scenario = Scenario::kReadHeavy;
  Vertex n = 1024;  // initial graph scale
  std::uint64_t seed = 1;
};

Graph make_initial_graph(const WorkloadSpec& spec);

class ShardRouter;

// One simulated client read session against a sharded router: every query
// resolves its owning shard through the view (the serving pattern the router
// optimizes — one directory load + one snapshot load per resolve) and asks a
// root / depth / same-component probe over random ids below the router's
// current capacity. Returns a fold over the answers so callers can
// DoNotOptimize it; when `per_shard_queries` is non-null (sized num_shards)
// it accumulates how many of the session's queries landed on each shard
// (ids the directory has never seen count nowhere). Deterministic per rng
// state modulo concurrent ownership migration.
std::uint64_t run_read_session(const ShardRouter& router, Rng& rng, int queries,
                               std::vector<std::uint64_t>* per_shard_queries);

// ---- client-side retry/backoff (DESIGN.md §13) ------------------------------
//
// The ack statuses split into definitive (a version, or kRejected) and
// transient (kRetryable — lost to a writer crash before it was journaled;
// kOverloaded — shed by admission control; kTimeout — still in flight past
// the deadline). submit_with_retry is the canonical client loop over that
// contract: resubmit on kRetryable/kOverloaded with exponential backoff,
// keep waiting the SAME ticket on kTimeout (the update may still land —
// resubmitting a timed-out update risks applying it twice), stop on a
// definitive answer or when the attempt budget runs out.
struct RetryPolicy {
  // Total budget: submits plus extra waits on a timed-out ticket.
  int max_attempts = 8;
  // Per-attempt ack deadline (UpdateTicket::wait_for bound).
  std::chrono::nanoseconds ack_timeout = std::chrono::seconds(1);
  std::chrono::nanoseconds initial_backoff = std::chrono::microseconds(100);
  std::chrono::nanoseconds max_backoff = std::chrono::milliseconds(50);
};

struct SubmitOutcome {
  // The final version, or the last status observed when the budget ran out
  // (kTimeout / kRetryable / kOverloaded mean "not applied as far as the
  // client knows"; kTimeout specifically means "maybe still in flight").
  std::uint64_t result = UpdateTicket::kRejected;
  Vertex assigned_vertex = kNullVertex;  // for kInsertVertex, once applied
  int attempts = 0;
  // Applied (a version) or definitively refused (kRejected): retrying the
  // same op cannot change the answer.
  bool definitive() const {
    return !UpdateTicket::is_status(result) ||
           result == UpdateTicket::kRejected;
  }
  bool applied() const { return !UpdateTicket::is_status(result); }
};

SubmitOutcome submit_with_retry(ShardRouter& router, const GraphUpdate& update,
                                const RetryPolicy& policy = {});

class WorkloadDriver {
 public:
  explicit WorkloadDriver(WorkloadSpec spec);

  const WorkloadSpec& spec() const { return spec_; }
  // The mirror after all updates generated so far (what the served graph
  // looks like once every emitted update is applied).
  const Graph& graph() const { return mirror_; }

  // The next update of the stream; always feasible against the mirror, which
  // it is immediately applied to.
  GraphUpdate next();

  // dynamic_map: the cell grid the mirror graph discretizes. Row-major;
  // kNullVertex marks an obstacle. Restored cells get fresh vertex ids
  // (graph ids are never recycled), so the map outlives any id.
  Vertex map_rows() const { return rows_; }
  Vertex map_cols() const { return cols_; }
  // Current vertex id of cell (r, c); kNullVertex if blocked.
  Vertex cell_vertex(Vertex r, Vertex c) const {
    return cells_[static_cast<std::size_t>(r * cols_ + c)];
  }

 private:
  GraphUpdate next_mixed(double w_insert_edge, double w_delete_edge,
                         double w_insert_vertex, double w_delete_vertex);
  GraphUpdate next_dynamic_map();

  WorkloadSpec spec_;
  Graph mirror_;
  Rng rng_;
  std::uint64_t step_ = 0;
  // dynamic_map state (empty for the other scenarios).
  Vertex rows_ = 0, cols_ = 0;
  std::vector<Vertex> cells_;
  Vertex blocked_ = 0;
};

}  // namespace pardfs::service
