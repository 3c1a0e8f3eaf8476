#include "service/workload.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "service/shard_router.hpp"
#include "util/check.hpp"

namespace pardfs::service {

namespace {

// dynamic_map grid shape for a requested scale: the squarest rows × cols
// with rows * cols >= n.
void map_dims(Vertex n, Vertex& rows, Vertex& cols) {
  rows = 1;
  while ((rows + 1) * (rows + 1) <= n) ++rows;
  cols = (n + rows - 1) / rows;
}

}  // namespace

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kReadHeavy: return "read_heavy";
    case Scenario::kInsertChurn: return "insert_churn";
    case Scenario::kAdversarialStar: return "adversarial_star";
    case Scenario::kSocialMix: return "social_mix";
    case Scenario::kDynamicMap: return "dynamic_map";
  }
  return "unknown";
}

double read_fraction(Scenario s) {
  switch (s) {
    case Scenario::kReadHeavy: return 0.95;
    case Scenario::kInsertChurn: return 0.50;
    case Scenario::kAdversarialStar: return 0.50;
    case Scenario::kSocialMix: return 0.90;
    case Scenario::kDynamicMap: return 0.90;  // replanning queries dominate
  }
  return 0.5;
}

Graph make_initial_graph(const WorkloadSpec& spec) {
  Rng rng(spec.seed * 0x9E3779B97F4A7C15ULL + 1);
  const Vertex n = std::max<Vertex>(spec.n, 8);
  switch (spec.scenario) {
    case Scenario::kReadHeavy:
      return gen::random_connected(n, 2 * static_cast<std::int64_t>(n), rng);
    case Scenario::kInsertChurn:
      // Starts small; the stream grows it (vertex arrivals carry edges).
      return gen::random_connected(std::max<Vertex>(n / 4, 8),
                                   static_cast<std::int64_t>(n) / 4, rng);
    case Scenario::kAdversarialStar: {
      // Star plus a leaf ring: deleting a center spoke forces a Θ(n)-subtree
      // reroot through the ring instead of just detaching a leaf.
      Graph g = gen::star(n);
      for (Vertex i = 1; i + 1 < n; ++i) g.add_edge(i, i + 1);
      if (n > 3) g.add_edge(n - 1, 1);
      return g;
    }
    case Scenario::kSocialMix:
      return gen::barabasi_albert(n, 4, rng);
    case Scenario::kDynamicMap: {
      Vertex rows, cols;
      map_dims(n, rows, cols);
      return gen::grid(rows, cols);
    }
  }
  return gen::path(n);
}

WorkloadDriver::WorkloadDriver(WorkloadSpec spec)
    : spec_(spec),
      mirror_(make_initial_graph(spec)),
      rng_(spec.seed * 0x2545F4914F6CDD1DULL + 7) {
  // make_initial_graph clamps tiny n; keep the stored spec consistent with
  // the mirror so scenario arithmetic (spoke rotation) never divides by the
  // unclamped value.
  spec_.n = std::max<Vertex>(spec_.n, 8);
  if (spec_.scenario == Scenario::kDynamicMap) {
    map_dims(spec_.n, rows_, cols_);
    cells_.resize(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_));
    for (Vertex i = 0; i < rows_ * cols_; ++i) cells_[static_cast<std::size_t>(i)] = i;
  }
}

GraphUpdate WorkloadDriver::next_mixed(double w_insert_edge,
                                       double w_delete_edge,
                                       double w_insert_vertex,
                                       double w_delete_vertex) {
  GraphUpdate u;
  const bool ok = gen::random_update(mirror_, rng_, w_insert_edge,
                                     w_delete_edge, w_insert_vertex,
                                     w_delete_vertex, u);
  PARDFS_CHECK_MSG(ok, "workload stream became infeasible");
  mirror_.apply(u);
  return u;
}

GraphUpdate WorkloadDriver::next() {
  ++step_;
  switch (spec_.scenario) {
    case Scenario::kReadHeavy:
      return next_mixed(1.0, 1.0, 0.0, 0.0);
    case Scenario::kInsertChurn:
      return next_mixed(3.0, 1.0, 0.8, 0.1);
    case Scenario::kAdversarialStar: {
      // Rotate over the spokes, toggling them; every few steps a random edge
      // op keeps the ring churning too. Vertices are never deleted (the
      // center must stay the hub).
      if (step_ % 7 == 0) return next_mixed(1.0, 1.0, 0.0, 0.0);
      const Vertex n0 = spec_.n;
      const Vertex leaf = 1 + static_cast<Vertex>((step_ * 5) % (n0 - 1));
      if (!mirror_.is_alive(0) || !mirror_.is_alive(leaf)) {
        return next_mixed(1.0, 1.0, 0.0, 0.0);
      }
      if (mirror_.has_edge(0, leaf)) {
        mirror_.remove_edge(0, leaf);
        return GraphUpdate::delete_edge(0, leaf);
      }
      mirror_.add_edge(0, leaf);
      return GraphUpdate::insert_edge(0, leaf);
    }
    case Scenario::kSocialMix:
      return next_mixed(1.5, 1.0, 0.5, 0.3);
    case Scenario::kDynamicMap:
      return next_dynamic_map();
  }
  return next_mixed(1.0, 1.0, 0.0, 0.0);
}

GraphUpdate WorkloadDriver::next_dynamic_map() {
  // Obstacle churn over the cell grid. Every emitted update is applied to
  // the mirror first, so the stream honors the driver's feasibility contract
  // (a DfsService fed by it must never ack kRejected; pinned by
  // tests/test_workload.cpp). Occasionally a random edge op ("shortcut"
  // churn) keeps the non-tree structure moving too.
  if (step_ % 7 == 0) return next_mixed(1.0, 1.0, 0.0, 0.0);
  const Vertex num_cells = rows_ * cols_;
  const Vertex max_blocked = num_cells / 4;  // keep the map mostly navigable
  for (;;) {
    const auto idx =
        static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(num_cells)));
    const Vertex id = cells_[idx];
    if (id != kNullVertex) {
      // Obstacle appears: the cell's vertex (and all incident road segments)
      // goes away. Skip if the map is already at its obstacle budget.
      if (blocked_ >= max_blocked) continue;
      cells_[idx] = kNullVertex;
      ++blocked_;
      mirror_.remove_vertex(id);
      return GraphUpdate::delete_vertex(id);
    }
    // Obstacle clears: re-open the cell under a fresh vertex id, wired to
    // whichever 4-neighbors are currently open.
    const Vertex r = static_cast<Vertex>(idx) / cols_;
    const Vertex c = static_cast<Vertex>(idx) % cols_;
    std::vector<Vertex> nbrs;
    if (r > 0 && cell_vertex(r - 1, c) != kNullVertex) nbrs.push_back(cell_vertex(r - 1, c));
    if (r + 1 < rows_ && cell_vertex(r + 1, c) != kNullVertex) nbrs.push_back(cell_vertex(r + 1, c));
    if (c > 0 && cell_vertex(r, c - 1) != kNullVertex) nbrs.push_back(cell_vertex(r, c - 1));
    if (c + 1 < cols_ && cell_vertex(r, c + 1) != kNullVertex) nbrs.push_back(cell_vertex(r, c + 1));
    cells_[idx] = mirror_.add_vertex(nbrs);
    --blocked_;
    return GraphUpdate::insert_vertex(std::move(nbrs));
  }
}

std::uint64_t run_read_session(const ShardRouter& router, Rng& rng, int queries,
                               std::vector<std::uint64_t>* per_shard_queries) {
  const Vertex cap = router.capacity();
  if (cap <= 0) return 0;
  const RouterView view = router.view();
  std::uint64_t sink = 0;
  for (int q = 0; q < queries; ++q) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(cap)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(cap)));
    sink += static_cast<std::uint64_t>(view.root_of(u));
    sink += static_cast<std::uint64_t>(view.depth(u));
    sink += view.same_component(u, v) ? 1 : 0;
    if (per_shard_queries != nullptr) {
      const int s = router.shard_of(u);
      if (s >= 0 && static_cast<std::size_t>(s) < per_shard_queries->size()) {
        ++(*per_shard_queries)[static_cast<std::size_t>(s)];
      }
    }
  }
  return sink;
}

SubmitOutcome submit_with_retry(ShardRouter& router, const GraphUpdate& update,
                                const RetryPolicy& policy) {
  SubmitOutcome out;
  std::chrono::nanoseconds backoff = policy.initial_backoff;
  while (out.attempts < policy.max_attempts) {
    ++out.attempts;
    // Each attempt re-submits a copy: kInsertVertex carries a neighbor list
    // the queue takes by value.
    const UpdateTicket ticket = router.submit(update);
    std::uint64_t r = ticket.wait_for(policy.ack_timeout);
    // A timed-out ticket is still in flight — keep waiting on IT rather than
    // resubmitting (each extra wait burns an attempt).
    while (r == UpdateTicket::kTimeout && out.attempts < policy.max_attempts) {
      ++out.attempts;
      r = ticket.wait_for(policy.ack_timeout);
    }
    out.result = r;
    if (out.definitive()) {
      out.assigned_vertex = ticket.assigned_vertex();
      return out;
    }
    if (r == UpdateTicket::kTimeout) return out;  // budget spent mid-flight
    // kRetryable (lost to a crash, not applied) / kOverloaded (shed at
    // admission): back off and resubmit.
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
  return out;
}

}  // namespace pardfs::service
