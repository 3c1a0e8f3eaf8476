// The snapshot-serving layer: queue semantics (backpressure, FIFO acks,
// rejection), snapshot immutability and version ordering, batch coalescing,
// and the concurrent consistency check — 8 readers against 1 writer, every
// published version validated as a DFS forest (tree/validation) of the
// replayed update prefix it claims to reflect.
#include "service/dfs_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs::service {
namespace {

void apply_to_mirror(Graph& g, const GraphUpdate& u) {
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      g.add_edge(u.u, u.v);
      break;
    case GraphUpdate::Kind::kDeleteEdge:
      g.remove_edge(u.u, u.v);
      break;
    case GraphUpdate::Kind::kInsertVertex:
      g.add_vertex(u.neighbors);
      break;
    case GraphUpdate::Kind::kDeleteVertex:
      g.remove_vertex(u.u);
      break;
  }
}

TEST(Service, InitialSnapshotServesQueries) {
  DfsService svc(gen::path(6));
  const SnapshotPtr snap = svc.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->updates_applied(), 0u);
  EXPECT_EQ(snap->num_vertices(), 6);
  EXPECT_TRUE(snap->same_component(0, 5));
  EXPECT_TRUE(snap->is_ancestor(snap->root_of(5), 5));
  const auto path = snap->path_to_root(5);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 5);
  EXPECT_EQ(path.back(), snap->root_of(5));
  // Total queries: unknown ids answer benignly.
  EXPECT_FALSE(snap->contains(-1));
  EXPECT_FALSE(snap->contains(99));
  EXPECT_EQ(snap->lca(0, 99), kNullVertex);
  EXPECT_EQ(snap->parent_of(-3), kNullVertex);
  EXPECT_TRUE(snap->path_to_root(42).empty());
}

TEST(Service, AcksCarryThePublishingVersion) {
  DfsService svc(gen::path(8));
  const std::uint64_t v1 = svc.apply_sync(GraphUpdate::delete_edge(3, 4));
  ASSERT_NE(v1, UpdateTicket::kRejected);
  EXPECT_GE(v1, 2u);
  const SnapshotPtr snap = svc.snapshot();
  EXPECT_GE(snap->version(), v1) << "ack must not precede its snapshot";
  EXPECT_FALSE(snap->same_component(0, 7));
  const std::uint64_t v2 = svc.apply_sync(GraphUpdate::insert_edge(2, 5));
  EXPECT_GT(v2, v1);
  EXPECT_TRUE(svc.snapshot()->same_component(0, 7));
}

TEST(Service, RejectsInfeasibleUpdates) {
  DfsService svc(gen::path(4));
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_edge(0, 1)),
            UpdateTicket::kRejected)
      << "duplicate edge";
  EXPECT_EQ(svc.apply_sync(GraphUpdate::delete_edge(0, 2)),
            UpdateTicket::kRejected)
      << "absent edge";
  EXPECT_EQ(svc.apply_sync(GraphUpdate::delete_vertex(17)),
            UpdateTicket::kRejected)
      << "unknown vertex";
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_edge(2, 2)),
            UpdateTicket::kRejected)
      << "self loop";
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_vertex({1, 1})),
            UpdateTicket::kRejected)
      << "duplicate neighbors";
  // The graph is untouched.
  svc.stop();
  EXPECT_EQ(svc.stats().updates_rejected, 5u);
  EXPECT_EQ(svc.stats().updates_applied, 0u);
  EXPECT_EQ(svc.snapshot()->version(), 1u);
}

TEST(Service, StatsSplitRejectionsByReason) {
  DfsService svc(gen::path(4));
  // Two drain-time feasibility rejections...
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_edge(0, 1)),
            UpdateTicket::kRejected);
  EXPECT_EQ(svc.apply_sync(GraphUpdate::delete_edge(0, 3)),
            UpdateTicket::kRejected);
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_edge(0, 2)), 2u);
  svc.stop();
  // ...and one submit that arrives after stop(). It still acks (rejected)
  // but never reaches the writer, so it is NOT part of updates_rejected.
  EXPECT_EQ(svc.apply_sync(GraphUpdate::insert_edge(1, 3)),
            UpdateTicket::kRejected);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.updates_rejected, 2u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.updates_applied, 1u);
}

TEST(Service, MetricsPagesAreServedLive) {
  DfsService svc(gen::path(8));
  (void)svc.apply_sync(GraphUpdate::insert_edge(0, 7));
  svc.stop();
  const std::string prom = svc.metrics_text();
  EXPECT_NE(prom.find("# TYPE pardfs_update_phase_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("pardfs_queue_depth"), std::string::npos);
  const std::string json = svc.metrics_json();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("pardfs_ack_latency_us"), std::string::npos);
}

TEST(Service, VertexInsertTicketCarriesAssignedId) {
  DfsService svc(gen::path(3));
  const UpdateTicket t = svc.submit(GraphUpdate::insert_vertex({0, 2}));
  ASSERT_TRUE(t.valid());
  const std::uint64_t version = t.wait();
  ASSERT_NE(version, UpdateTicket::kRejected);
  EXPECT_EQ(t.assigned_vertex(), 3);
  EXPECT_TRUE(svc.snapshot()->contains(3));
}

TEST(Service, CoalescesPendingUpdatesIntoOneBatch) {
  ServiceConfig config;
  config.start_paused = true;
  config.max_batch = 64;
  Rng rng(5);
  DfsService svc(gen::random_connected(300, 900, rng), config);
  // 6 tree-structural updates queue up while the writer is paused.
  std::vector<UpdateTicket> tickets;
  const SnapshotPtr before = svc.snapshot();
  for (Vertex v = 1; tickets.size() < 6; ++v) {
    const Vertex p = before->parent_of(v);
    if (p == kNullVertex) continue;
    tickets.push_back(svc.submit(GraphUpdate::delete_edge(p, v)));
  }
  EXPECT_EQ(svc.queue_depth(), 6u);
  svc.resume();
  for (const UpdateTicket& t : tickets) {
    EXPECT_NE(t.wait(), UpdateTicket::kRejected);
  }
  svc.stop();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 1u) << "one drain, one apply_batch";
  EXPECT_EQ(stats.max_batch, 6u);
  EXPECT_EQ(stats.index_rebuilds, 1u)
      << "the coalesced batch costs one O(n) index rebuild";
  EXPECT_EQ(svc.snapshot()->version(), 2u);
  const auto val =
      validate_dfs_forest(svc.core().graph(), svc.core().parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Service, PauseHoldsBackDrainedUpdates) {
  // pause() while the writer is blocked on an empty queue: updates submitted
  // afterwards must not apply (let alone publish) until resume().
  DfsService svc(gen::path(16));
  ASSERT_NE(svc.apply_sync(GraphUpdate::delete_edge(7, 8)),
            UpdateTicket::kRejected);  // writer is live, then idles in drain
  svc.pause();
  const UpdateTicket held = svc.submit(GraphUpdate::delete_edge(2, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(held.done()) << "paused service must hold the update";
  EXPECT_EQ(svc.snapshot()->version(), 2u);
  svc.resume();
  EXPECT_NE(held.wait(), UpdateTicket::kRejected);
  EXPECT_GE(svc.snapshot()->version(), 3u);
}

TEST(Service, PatchOnlyBatchesShareTheForest) {
  // Back-edge batches publish a new version but must reuse the previous
  // snapshot's O(n) forest structures instead of copying them.
  DfsService svc(gen::path(32));
  const SnapshotPtr before = svc.snapshot();
  ASSERT_NE(svc.apply_sync(GraphUpdate::insert_edge(0, 20)),
            UpdateTicket::kRejected);  // ancestor pair on a path: patch-only
  const SnapshotPtr patched = svc.snapshot();
  EXPECT_GT(patched->version(), before->version());
  EXPECT_EQ(patched->num_edges(), before->num_edges() + 1);
  EXPECT_EQ(patched->forest(), before->forest()) << "forest must be shared";
  ASSERT_NE(svc.apply_sync(GraphUpdate::delete_edge(25, 26)),
            UpdateTicket::kRejected);  // structural (below the back edge)
  const SnapshotPtr moved = svc.snapshot();
  EXPECT_NE(moved->forest(), patched->forest());
  EXPECT_FALSE(moved->same_component(0, 26));
}

TEST(Service, BackpressureBoundsTheQueue) {
  ServiceConfig config;
  config.start_paused = true;
  config.queue_capacity = 2;
  DfsService svc(gen::path(32), config);
  ASSERT_TRUE(svc.submit(GraphUpdate::delete_edge(1, 2)).valid());
  ASSERT_TRUE(svc.submit(GraphUpdate::delete_edge(5, 6)).valid());
  UpdateTicket overflow;
  EXPECT_FALSE(svc.try_submit(GraphUpdate::delete_edge(9, 10), &overflow))
      << "queue full: try_submit must refuse";
  // A blocking submit parks until the writer drains.
  std::atomic<bool> submitted{false};
  std::thread producer([&] {
    const UpdateTicket t = svc.submit(GraphUpdate::delete_edge(9, 10));
    submitted.store(true);
    EXPECT_TRUE(t.valid());
    EXPECT_NE(t.wait(), UpdateTicket::kRejected);
  });
  EXPECT_FALSE(submitted.load());
  svc.resume();
  producer.join();
  svc.stop();
  EXPECT_EQ(svc.stats().updates_applied, 3u);
}

TEST(Service, StopDrainsEveryPendingTicket) {
  ServiceConfig config;
  config.start_paused = true;
  DfsService svc(gen::path(40), config);
  std::vector<UpdateTicket> tickets;
  for (Vertex v = 0; v + 1 < 40; v += 2) {
    tickets.push_back(svc.submit(GraphUpdate::delete_edge(v, v + 1)));
  }
  svc.stop();  // resumes, closes, drains, joins
  for (const UpdateTicket& t : tickets) {
    EXPECT_TRUE(t.done()) << "stop() must not strand tickets";
    EXPECT_NE(t.wait(), UpdateTicket::kRejected);
  }
  const UpdateTicket late = svc.submit(GraphUpdate::insert_edge(0, 1));
  EXPECT_TRUE(late.done()) << "post-stop submits fail fast, pre-acknowledged";
  EXPECT_EQ(late.wait(), UpdateTicket::kRejected);
}

TEST(Service, SubmitRacingStopIsRejectedNotAborted) {
  // Regression: a client whose submit() lost the race against stop() used to
  // receive an invalid ticket, and the blocking-apply path's immediate
  // wait() tripped PARDFS_CHECK(valid()) — aborting the whole process. The
  // contract now is a ticket pre-acknowledged as kRejected. Hammer the race
  // from both sides; any abort fails the test run itself.
  const Graph initial = gen::path(16);
  for (int iter = 0; iter < 1000; ++iter) {
    DfsService svc(initial, {});
    std::atomic<bool> go{false};
    std::thread producer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (Vertex i = 0; i < 6; ++i) {
        // Both entry points must stay total through the shutdown.
        const UpdateTicket t = svc.submit(GraphUpdate::insert_edge(0, 2 + i));
        const std::uint64_t direct = t.wait();
        const std::uint64_t synced =
            svc.apply_sync(GraphUpdate::delete_edge(2 + i, 3 + i));
        if (direct == UpdateTicket::kRejected &&
            synced == UpdateTicket::kRejected) {
          break;  // service fully stopped under us
        }
      }
    });
    go.store(true, std::memory_order_release);
    svc.stop();
    producer.join();
  }
}

TEST(Service, MultipleProducersAllAcked) {
  ServiceConfig config;
  config.queue_capacity = 16;
  Rng rng(11);
  DfsService svc(gen::random_connected(120, 300, rng), config);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::atomic<std::uint64_t> acked{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng prng(1000 + p);
      for (int i = 0; i < kPerProducer; ++i) {
        const Vertex u = static_cast<Vertex>(prng.below(120));
        const Vertex v = static_cast<Vertex>(prng.below(120));
        if (u == v) continue;
        // Producers race: some of these are infeasible by the time they
        // drain. Every ticket must still resolve.
        const GraphUpdate update = prng.coin(0.5)
                                       ? GraphUpdate::insert_edge(u, v)
                                       : GraphUpdate::delete_edge(u, v);
        const UpdateTicket t = svc.submit(update);
        ASSERT_TRUE(t.valid());
        t.wait();
        acked.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.stop();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.updates_applied + stats.updates_rejected, acked.load());
  const auto val =
      validate_dfs_forest(svc.core().graph(), svc.core().parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

// The acceptance check: 8 reader threads answer queries against whatever
// snapshot they last loaded while 1 writer absorbs a mixed update stream.
// Readers verify structural consistency of every answer with the snapshot
// they hold; the producer validates every published version against a mirror
// graph replayed to exactly snapshot->updates_applied() updates.
TEST(Service, ConcurrentConsistencyUnderChurn) {
  const WorkloadSpec spec{Scenario::kSocialMix, 200, 20260729};
  WorkloadDriver driver(spec);
  Graph mirror = make_initial_graph(spec);
  ServiceConfig config;
  config.queue_capacity = 64;
  DfsService svc(make_initial_graph(spec), config);

  constexpr int kReaders = 8;
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> queries_served{0};
  std::atomic<int> reader_errors{0};
  std::mutex error_mu;
  std::string first_error;
  const auto report = [&](const std::string& what) {
    reader_errors.fetch_add(1);
    std::lock_guard lock(error_mu);
    if (first_error.empty()) first_error = what;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(777 + r);
      std::uint64_t last_version = 0;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const SnapshotPtr snap = svc.snapshot();
        if (snap->version() < last_version) {
          report("snapshot version went backwards");
          return;
        }
        last_version = snap->version();
        const Vertex cap = snap->capacity();
        for (int q = 0; q < 32; ++q) {
          const Vertex u = static_cast<Vertex>(rng.below(cap + 2));
          const Vertex v = static_cast<Vertex>(rng.below(cap + 2));
          if (!snap->contains(u)) {
            if (snap->root_of(u) != kNullVertex || !snap->path_to_root(u).empty()) {
              report("unknown vertex must answer benignly");
              return;
            }
            continue;
          }
          const Vertex root = snap->root_of(u);
          if (root == kNullVertex || !snap->is_ancestor(root, u)) {
            report("root_of not an ancestor");
            return;
          }
          const auto path = snap->path_to_root(u);
          if (path.empty() || path.front() != u || path.back() != root ||
              static_cast<std::int32_t>(path.size()) != snap->depth(u) + 1) {
            report("path_to_root inconsistent with depth");
            return;
          }
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            if (snap->parent_of(path[i]) != path[i + 1]) {
              report("path_to_root inconsistent with parent_of");
              return;
            }
          }
          if (!snap->contains(v)) continue;
          if (snap->same_component(u, v)) {
            const Vertex l = snap->lca(u, v);
            if (l == kNullVertex || !snap->is_ancestor(l, u) ||
                !snap->is_ancestor(l, v)) {
              report("lca must be a common ancestor within a component");
              return;
            }
          } else if (snap->lca(u, v) != kNullVertex) {
            report("lca across components must be null");
            return;
          }
          queries_served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Producer (this thread): stream updates, validating published versions
  // against the replayed mirror as they appear.
  std::vector<GraphUpdate> accepted;
  std::uint64_t mirrored = 0;
  const auto validate_snapshot = [&](const SnapshotPtr& snap) {
    ASSERT_LE(snap->updates_applied(), accepted.size());
    ASSERT_GE(snap->updates_applied(), mirrored) << "versions must be FIFO";
    while (mirrored < snap->updates_applied()) {
      apply_to_mirror(mirror, accepted[static_cast<std::size_t>(mirrored)]);
      ++mirrored;
    }
    ASSERT_EQ(static_cast<Vertex>(snap->parent().size()), mirror.capacity());
    ASSERT_EQ(snap->num_vertices(), mirror.num_vertices());
    ASSERT_EQ(snap->num_edges(), mirror.num_edges());
    const auto val = validate_dfs_forest(mirror, snap->parent());
    ASSERT_TRUE(val.ok) << "version " << snap->version() << ": " << val.reason;
  };

  constexpr int kUpdates = 400;
  std::vector<UpdateTicket> tickets;
  tickets.reserve(kUpdates);
  for (int i = 0; i < kUpdates; ++i) {
    GraphUpdate u = driver.next();
    accepted.push_back(u);
    tickets.push_back(svc.submit(std::move(u)));
    ASSERT_TRUE(tickets.back().valid());
    if (i % 16 == 15) {
      ASSERT_NE(tickets.back().wait(), UpdateTicket::kRejected)
          << "single-producer driver streams are always feasible";
      validate_snapshot(svc.snapshot());
      if (HasFatalFailure()) break;
    }
  }
  for (const UpdateTicket& t : tickets) {
    EXPECT_NE(t.wait(), UpdateTicket::kRejected);
  }
  validate_snapshot(svc.snapshot());
  stop_readers.store(true);
  for (auto& t : readers) t.join();
  svc.stop();

  EXPECT_EQ(reader_errors.load(), 0) << first_error;
  EXPECT_GT(queries_served.load(), 0u);
  const SnapshotPtr final_snap = svc.snapshot();
  EXPECT_EQ(final_snap->updates_applied(), static_cast<std::uint64_t>(kUpdates));
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.updates_applied, static_cast<std::uint64_t>(kUpdates));
  EXPECT_EQ(stats.updates_rejected, 0u);
  EXPECT_LE(stats.index_rebuilds, stats.updates_applied)
      << "batching must never cost more rebuilds than updates";
}

TEST(Service, CutQueriesOffByDefault) {
  DfsService svc(gen::path(6));
  const SnapshotPtr snap = svc.snapshot();
  EXPECT_FALSE(snap->serves_cuts());
  // Without serve_cuts every cut query answers the benign default, even for
  // vertices that really are articulation points.
  EXPECT_FALSE(snap->is_articulation(2));
  EXPECT_FALSE(snap->is_bridge(2, 3));
  EXPECT_TRUE(snap->bridges().empty());
}

TEST(Service, SnapshotServesArticulationAndBridges) {
  ServiceConfig config;
  config.serve_cuts = true;
  DfsService svc(gen::path(6), config);
  const SnapshotPtr snap = svc.snapshot();
  ASSERT_TRUE(snap->serves_cuts());
  EXPECT_FALSE(snap->is_articulation(0));
  EXPECT_FALSE(snap->is_articulation(5));
  for (Vertex v = 1; v < 5; ++v) EXPECT_TRUE(snap->is_articulation(v));
  EXPECT_EQ(snap->bridges().size(), 5u);
  EXPECT_TRUE(snap->is_bridge(2, 3));
  EXPECT_TRUE(snap->is_bridge(3, 2)) << "orientation must not matter";
  EXPECT_FALSE(snap->is_bridge(0, 5)) << "not even an edge";
  // Totality at the service boundary.
  EXPECT_FALSE(snap->is_articulation(-1));
  EXPECT_FALSE(snap->is_articulation(99));
  EXPECT_FALSE(snap->is_bridge(-1, 2));
  EXPECT_FALSE(snap->is_bridge(2, 99));
}

TEST(Service, PatchOnlyBatchesStillRefreshCuts) {
  // A back-edge insert shares the previous snapshot's Forest (see
  // PatchOnlyBatchesShareTheForest) but it changes the cut structure — the
  // cycle it closes demotes articulation points and un-bridges tree edges.
  // Cuts live per-snapshot, so the patched snapshot must answer afresh.
  ServiceConfig config;
  config.serve_cuts = true;
  DfsService svc(gen::path(8), config);
  const SnapshotPtr before = svc.snapshot();
  EXPECT_TRUE(before->is_articulation(2));
  EXPECT_TRUE(before->is_bridge(1, 2));
  ASSERT_NE(svc.apply_sync(GraphUpdate::insert_edge(0, 4)),
            UpdateTicket::kRejected);  // ancestor pair on a path: patch-only
  const SnapshotPtr after = svc.snapshot();
  ASSERT_EQ(after->forest(), before->forest()) << "patch-only must share";
  EXPECT_FALSE(after->is_articulation(2)) << "now on a cycle";
  EXPECT_FALSE(after->is_bridge(1, 2)) << "now on a cycle";
  EXPECT_TRUE(after->is_articulation(4)) << "cycle exit towards the tail";
  EXPECT_TRUE(after->is_bridge(4, 5));
  // The old snapshot still answers with its own epoch's cuts (immutability).
  EXPECT_TRUE(before->is_articulation(2));
}

TEST(Service, ServedCutsMatchBruteForceUnderChurn) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 64, 99};
  WorkloadDriver driver(spec);
  ServiceConfig config;
  config.serve_cuts = true;
  DfsService svc(make_initial_graph(spec), config);
  const auto count_components = [](const Graph& g, Vertex skip) {
    std::vector<std::int8_t> seen(static_cast<std::size_t>(g.capacity()), 0);
    std::vector<Vertex> stack;
    int comps = 0;
    for (Vertex s = 0; s < g.capacity(); ++s) {
      if (!g.is_alive(s) || s == skip || seen[static_cast<std::size_t>(s)]) continue;
      ++comps;
      seen[static_cast<std::size_t>(s)] = 1;
      stack.push_back(s);
      while (!stack.empty()) {
        const Vertex v = stack.back();
        stack.pop_back();
        for (const Vertex w : g.neighbors(v)) {
          if (w == skip || seen[static_cast<std::size_t>(w)]) continue;
          seen[static_cast<std::size_t>(w)] = 1;
          stack.push_back(w);
        }
      }
    }
    return comps;
  };
  for (int i = 0; i < 160; ++i) {
    ASSERT_NE(svc.apply_sync(driver.next()), UpdateTicket::kRejected);
    if (i % 20 != 19) continue;
    // apply_sync acked => the snapshot reflects the update; the driver's
    // mirror is the ground truth to brute-force against.
    const SnapshotPtr snap = svc.snapshot();
    ASSERT_TRUE(snap->serves_cuts());
    const Graph& mirror = driver.graph();
    const int base = count_components(mirror, kNullVertex);
    for (Vertex v = 0; v < mirror.capacity(); ++v) {
      if (!mirror.is_alive(v)) {
        EXPECT_FALSE(snap->is_articulation(v));
        continue;
      }
      const bool brute =
          mirror.degree(v) > 0 && count_components(mirror, v) > base;
      ASSERT_EQ(snap->is_articulation(v), brute)
          << "update " << i << " vertex " << v;
    }
    for (const Edge& b : snap->bridges()) {
      Graph h = mirror;
      h.remove_edge(b.u, b.v);
      ASSERT_GT(count_components(h, kNullVertex), base)
          << "update " << i << " claimed bridge (" << b.u << "," << b.v << ")";
    }
  }
  svc.stop();
}

// is_bridge binary-searches the bridge list by child id. On a churned grid
// map (dead ids, fresh-id inserts) it must answer every edge, either
// orientation, as the remove-one-edge oracle does, and no non-edge.
TEST(Service, IsBridgeMatchesBruteForceOnAChurnedGrid) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 256, 41};
  WorkloadDriver driver(spec);
  ServiceConfig config;
  config.serve_cuts = true;
  DfsService svc(make_initial_graph(spec), config);
  for (int i = 0; i < 300; ++i) {
    ASSERT_NE(svc.apply_sync(driver.next()), UpdateTicket::kRejected);
  }
  const SnapshotPtr snap = svc.snapshot();
  const Graph& mirror = driver.graph();
  ASSERT_LT(mirror.num_vertices(), mirror.capacity()) << "no dead ids";
  const std::span<const Edge> bridges = snap->bridges();
  ASSERT_GT(bridges.size(), 1u);
  EXPECT_TRUE(std::is_sorted(bridges.begin(), bridges.end(),
                             [](const Edge& a, const Edge& b) { return a.v < b.v; }));
  const auto reach = [&](const Graph& g, Vertex from, Vertex to) {
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(g.capacity()), 0);
    std::vector<Vertex> stack = {from};
    seen[static_cast<std::size_t>(from)] = 1;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      if (v == to) return true;
      for (const Vertex w : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          stack.push_back(w);
        }
      }
    }
    return false;
  };
  std::size_t found = 0;
  for (const Edge& e : mirror.edges()) {
    Graph h = mirror;
    h.remove_edge(e.u, e.v);
    const bool brute = !reach(h, e.u, e.v);
    ASSERT_EQ(snap->is_bridge(e.u, e.v), brute) << "(" << e.u << "," << e.v << ")";
    ASSERT_EQ(snap->is_bridge(e.v, e.u), brute) << "(" << e.v << "," << e.u << ")";
    found += brute ? 1 : 0;
  }
  EXPECT_EQ(found, bridges.size());
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(mirror.capacity())));
    const auto v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(mirror.capacity())));
    if (!mirror.has_edge(u, v)) ASSERT_FALSE(snap->is_bridge(u, v));
  }
  svc.stop();
}

TEST(Service, WorkloadScenariosServeValidSnapshots) {
  for (const Scenario scenario :
       {Scenario::kReadHeavy, Scenario::kInsertChurn,
        Scenario::kAdversarialStar, Scenario::kSocialMix}) {
    const WorkloadSpec spec{scenario, 96, 3 + static_cast<std::uint64_t>(scenario)};
    WorkloadDriver driver(spec);
    Graph mirror = make_initial_graph(spec);
    DfsService svc(make_initial_graph(spec));
    std::vector<GraphUpdate> accepted;
    std::uint64_t mirrored = 0;
    for (int i = 0; i < 120; ++i) {
      GraphUpdate u = driver.next();
      accepted.push_back(u);
      const std::uint64_t version = svc.apply_sync(std::move(u));
      ASSERT_NE(version, UpdateTicket::kRejected)
          << scenario_name(scenario) << " update " << i;
      if (i % 10 == 9) {
        const SnapshotPtr snap = svc.snapshot();
        while (mirrored < snap->updates_applied()) {
          apply_to_mirror(mirror, accepted[static_cast<std::size_t>(mirrored)]);
          ++mirrored;
        }
        const auto val = validate_dfs_forest(mirror, snap->parent());
        ASSERT_TRUE(val.ok)
            << scenario_name(scenario) << " update " << i << ": " << val.reason;
      }
    }
    svc.stop();
  }
}

}  // namespace
}  // namespace pardfs::service
