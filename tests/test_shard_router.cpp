// The component-sharded serving layer (DESIGN.md §12): partition coverage,
// merge-determinism — the assembled forest after cross-shard activity is
// byte-identical at 1 / 2 / 4 / 16 shards and any thread count — the
// two-shard merge protocol (directory flip, cut-structure refresh on both
// sides, migration counters), the metrics page's event counts against
// stats(), RouterView totality, and the submit-vs-stop race regression
// re-run against every shard's queue.
#include "service/shard_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "service/dfs_service.hpp"
#include "service/journal.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs::service {
namespace {

// k disjoint paths of `len` vertices each: path c covers ids
// [c*len, (c+1)*len). Round-robin placement puts path c on shard c % S.
Graph disjoint_paths(int k, int len) {
  Graph g;
  for (int c = 0; c < k; ++c) {
    for (int i = 0; i < len; ++i) g.add_vertex();
    for (int i = 1; i < len; ++i) {
      g.add_edge(static_cast<Vertex>(c * len + i - 1),
                 static_cast<Vertex>(c * len + i));
    }
  }
  return g;
}

// A deterministic update stream over an 8-component universe: cross- and
// intra-component edge churn, vertex inserts (attached and isolated) and
// deletions. Applied serially (apply_sync), every op sees the identical
// global state at any shard count, so acceptance — and the forest — must
// match a 1-shard run exactly.
std::vector<GraphUpdate> mixed_stream(int ops, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  Vertex known = 64;  // matches disjoint_paths(8, 8)
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 45) {
      out.push_back(GraphUpdate::insert_edge(
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(known))),
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(known)))));
    } else if (dice < 70) {
      out.push_back(GraphUpdate::delete_edge(
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(known))),
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(known)))));
    } else if (dice < 80) {
      std::vector<Vertex> nbrs;
      const std::uint64_t deg = rng.below(3);
      for (std::uint64_t d = 0; d < deg; ++d) {
        nbrs.push_back(static_cast<Vertex>(
            rng.below(static_cast<std::uint64_t>(known))));
      }
      out.push_back(GraphUpdate::insert_vertex(std::move(nbrs)));
      ++known;  // ids are assigned densely; rejected inserts skip one guess,
                // which only narrows the endpoint distribution — still valid
    } else if (dice < 90) {
      out.push_back(GraphUpdate::insert_vertex({}));
      ++known;
    } else {
      out.push_back(GraphUpdate::delete_vertex(
          static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(known)))));
    }
  }
  return out;
}

// The value on the page's one line of `series` (name plus label braces, as
// the page prints it); nullopt when the page has no such line or two.
std::optional<std::uint64_t> page_counter(const std::string& page,
                                          const std::string& series) {
  std::optional<std::uint64_t> found;
  std::istringstream lines(page);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() <= series.size() || line.compare(0, series.size(), series) != 0 ||
        line[series.size()] != ' ') {
      continue;
    }
    if (found.has_value()) return std::nullopt;
    found = std::stoull(line.substr(series.size() + 1));
  }
  return found;
}

// Every router event series on both pages equals its stats() field.
void expect_pages_match(const ShardRouter& router, const ServiceStats& st) {
  const std::pair<std::string, std::uint64_t> want[] = {
      {"pardfs_acks_rejected_total{reason=\"infeasible\"}",
       st.updates_rejected},
      {"pardfs_acks_rejected_total{reason=\"shutdown\"}", st.rejected_shutdown},
      {"pardfs_acks_retryable_total", st.retryable_acks},
      {"pardfs_batches_total", st.batches},
      {"pardfs_cross_shard_inserts_total", st.cross_shard_inserts},
      {"pardfs_overload_shed_total", st.overload_sheds},
      {"pardfs_recoveries_total", st.recoveries},
      {"pardfs_shard_migrations_total", st.shard_migrations},
      {"pardfs_snapshots_published_total", st.snapshots_published},
      {"pardfs_updates_applied_total", st.updates_applied},
  };
  const std::string text = router.metrics_text();
  const std::string json = router.metrics_json();
  for (const auto& [series, value] : want) {
    EXPECT_EQ(page_counter(text, series), value) << series << "\n" << text;
    std::string key;  // the JSON key escapes the label quotes
    for (const char c : series) {
      if (c == '"') key.push_back('\\');
      key.push_back(c);
    }
    const std::string entry = "\"" + key + "\":" + std::to_string(value);
    const std::size_t at = json.find(entry);
    ASSERT_NE(at, std::string::npos) << entry << "\n" << json;
    EXPECT_TRUE(json[at + entry.size()] == ',' || json[at + entry.size()] == '}')
        << entry;
  }
}

struct DrivenRouter {
  std::vector<Vertex> parent;
  std::vector<std::uint8_t> alive;
  ServiceStats stats;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  Vertex num_vertices = 0;
  std::int64_t num_edges = 0;
};

DrivenRouter drive(std::size_t num_shards, int num_threads,
                   const std::vector<GraphUpdate>& stream) {
  ServiceConfig config;
  config.num_shards = num_shards;
  config.num_threads = num_threads;
  ShardRouter router(disjoint_paths(8, 8), config);
  DrivenRouter out;
  for (const GraphUpdate& u : stream) {
    if (router.apply_sync(u) == UpdateTicket::kRejected) {
      ++out.rejected;
    } else {
      ++out.accepted;
    }
  }
  out.parent = router.assemble_parent();
  out.alive = router.assemble_alive();
  out.num_vertices = router.num_vertices();
  out.num_edges = router.num_edges();
  out.stats = router.stats();
  router.stop();
  return out;
}

TEST(ShardRouter, InitialPartitionCoversComponentsShardDisjointly) {
  ShardRouter router(disjoint_paths(8, 8), {.num_shards = 4});
  EXPECT_EQ(router.num_shards(), 4u);
  EXPECT_EQ(router.num_vertices(), 64);
  EXPECT_EQ(router.num_edges(), 8 * 7);
  for (Vertex v = 0; v < 64; ++v) {
    const int s = router.shard_of(v);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Whole components: every vertex of a path shares its path-head's shard.
    EXPECT_EQ(s, router.shard_of((v / 8) * 8));
    EXPECT_TRUE(router.view().contains(v));
  }
  // Round-robin over components in ascending root order.
  EXPECT_EQ(router.shard_of(0), 0);
  EXPECT_EQ(router.shard_of(8), 1);
  EXPECT_EQ(router.shard_of(16), 2);
  EXPECT_EQ(router.shard_of(24), 3);
  EXPECT_EQ(router.shard_of(32), 0);
  router.stop();
}

TEST(ShardRouter, SingleShardMatchesDfsService) {
  // The façade and a 1-shard router must publish identical forests.
  DfsService svc(disjoint_paths(4, 4));
  ShardRouter router(disjoint_paths(4, 4), {.num_shards = 1});
  const auto want = svc.snapshot()->parent();
  const auto got = router.assemble_parent();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(want[i], got[i]);
  svc.stop();
  router.stop();
}

TEST(ShardRouter, ForestBytesIdenticalAcrossShardAndThreadCounts) {
  const std::vector<GraphUpdate> stream = mixed_stream(400, 1234);
  const DrivenRouter base = drive(1, 0, stream);
  EXPECT_EQ(base.stats.shard_migrations, 0u);  // S=1 has no cross-shard ops
  EXPECT_EQ(base.stats.cross_shard_inserts, 0u);
  // Validate the 1-shard forest against an independently replayed mirror.
  {
    Graph mirror = disjoint_paths(8, 8);
    for (const GraphUpdate& u : stream) {
      switch (u.kind) {
        case GraphUpdate::Kind::kInsertEdge:
          if (mirror.is_alive(u.u) && mirror.is_alive(u.v) && u.u != u.v &&
              !mirror.has_edge(u.u, u.v)) {
            mirror.add_edge(u.u, u.v);
          }
          break;
        case GraphUpdate::Kind::kDeleteEdge:
          if (mirror.is_alive(u.u) && mirror.is_alive(u.v)) {
            mirror.remove_edge(u.u, u.v);
          }
          break;
        case GraphUpdate::Kind::kInsertVertex: {
          bool ok = true;
          for (const Vertex n : u.neighbors) ok = ok && mirror.is_alive(n);
          for (std::size_t a = 0; ok && a < u.neighbors.size(); ++a) {
            for (std::size_t b = a + 1; b < u.neighbors.size(); ++b) {
              ok = ok && u.neighbors[a] != u.neighbors[b];
            }
          }
          if (ok) {
            mirror.add_vertex(u.neighbors);
          } else {
            // The service rejected it but still never assigns the id twice:
            // rejected inserts consume nothing.
          }
          break;
        }
        case GraphUpdate::Kind::kDeleteVertex:
          if (mirror.is_alive(u.u)) mirror.remove_vertex(u.u);
          break;
      }
    }
    ASSERT_EQ(static_cast<std::size_t>(mirror.capacity()),
              base.parent.size());
    const ValidationResult ok = validate_dfs_forest(mirror, base.parent);
    EXPECT_TRUE(ok.ok) << ok.reason;
    EXPECT_EQ(mirror.num_edges(), base.num_edges);
    EXPECT_EQ(mirror.num_vertices(), base.num_vertices);
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const int threads : {0, 2}) {
      const DrivenRouter run = drive(shards, threads, stream);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      // Byte-identical forest and liveness...
      ASSERT_EQ(run.parent.size(), base.parent.size());
      EXPECT_EQ(run.parent, base.parent);
      EXPECT_EQ(run.alive, base.alive);
      // ...and shard-count-invariant aggregates. (Per-epoch counters —
      // batches, index_rebuilds, snapshots_published — legitimately differ:
      // each shard runs its own epoch clock.)
      EXPECT_EQ(run.accepted, base.accepted);
      EXPECT_EQ(run.rejected, base.rejected);
      EXPECT_EQ(run.stats.updates_applied, base.stats.updates_applied);
      EXPECT_EQ(run.stats.updates_rejected, base.stats.updates_rejected);
      EXPECT_EQ(run.num_vertices, base.num_vertices);
      EXPECT_EQ(run.num_edges, base.num_edges);
      EXPECT_GT(run.stats.cross_shard_inserts, 0u);
      EXPECT_GT(run.stats.shard_migrations, 0u);
    }
  }
}

// Every event is counted once, by the same pipeline at any shard count: a
// stream of local ops, cross-shard inserts (one a vertex insert whose
// neighbors span three shards), a cross-shard delete and an op on a
// never-assigned id yields the same counts at S = 1 and S = 4, and the
// metrics pages agree with ServiceStats.
TEST(ShardRouter, EventCountsMatchAtEveryShardCount) {
  // disjoint_paths(4, 4): path c is ids [4c, 4c + 4), on shard c at S = 4.
  const std::vector<GraphUpdate> stream = {
      GraphUpdate::insert_edge(0, 2),           // local back edge
      GraphUpdate::delete_edge(9, 13),          // cross-shard delete
      GraphUpdate::insert_edge(3, 4),           // cross-shard: paths 0, 1
      GraphUpdate::insert_edge(0, 99),          // never-assigned id
      GraphUpdate::delete_edge(1, 2),           // local tree edge
      GraphUpdate::insert_vertex({8, 12, 5}),   // neighbors on three shards
      GraphUpdate::insert_edge(10, 14),         // local after the merge
      GraphUpdate::insert_vertex({}),           // isolated
      GraphUpdate::delete_vertex(7),
      GraphUpdate::insert_edge(2, 2),           // self loop
  };
  ServiceStats per_shards[2];
  for (const std::size_t shards : {1u, 4u}) {
    ServiceConfig config;
    config.num_shards = shards;
    ShardRouter router(disjoint_paths(4, 4), config);
    for (const GraphUpdate& u : stream) (void)router.apply_sync(u);
    router.stop();
    const ServiceStats st = router.stats();
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(st.updates_applied, 7u);
    EXPECT_EQ(st.updates_rejected, 3u);
    EXPECT_EQ(st.batches, st.updates_applied);
    expect_pages_match(router, st);
    per_shards[shards == 1 ? 0 : 1] = st;
  }
  const ServiceStats& one = per_shards[0];
  const ServiceStats& four = per_shards[1];
  EXPECT_EQ(four.updates_applied, one.updates_applied);
  EXPECT_EQ(four.updates_rejected, one.updates_rejected);
  EXPECT_EQ(four.structural, one.structural);
  EXPECT_EQ(four.back_edges, one.back_edges);
  EXPECT_EQ(four.cross_shard_inserts, 2u);
  EXPECT_EQ(four.shard_migrations, 3u);  // path 1, then paths 2 and 3
  EXPECT_EQ(one.cross_shard_inserts, 0u);
}

// k disjoint side x side grids: grid c covers ids [c*side², (c+1)*side²),
// row-major; round-robin placement puts grid c on shard c % S.
Graph disjoint_grids(int k, int side) {
  Graph g;
  for (int c = 0; c < k; ++c) {
    const int base = c * side * side;
    for (int i = 0; i < side * side; ++i) g.add_vertex();
    for (int r = 0; r < side; ++r) {
      for (int col = 0; col < side; ++col) {
        const Vertex v = static_cast<Vertex>(base + r * side + col);
        if (col + 1 < side) g.add_edge(v, v + 1);
        if (r + 1 < side) g.add_edge(v, static_cast<Vertex>(v + side));
      }
    }
  }
  return g;
}

// The work cap (DESIGN.md §9) decides from component-local sizes only, so
// its branch and bytes do not depend on placement: the same component —
// one shard's only history at S = 1, two migrations into shard 0 at S = 4 —
// takes the cap on the same coalesced batch and publishes the same forest.
TEST(ShardRouter, WorkCapBranchAndBytesMatchAtEveryShardCount) {
  constexpr int kSide = 16;
  constexpr Vertex kGrid = kSide * kSide;
  std::vector<GraphUpdate> batch;  // chosen on the S = 1 forest
  std::vector<Vertex> want_parent;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServiceConfig config;
    config.num_shards = shards;
    config.max_batch = 9;  // the eight ops, plus the self loop below
    ShardRouter router(disjoint_grids(4, kSide), config);
    // Grid 1 joins grid 0, then grid 2 joins them: at S = 4 each insert
    // migrates the smaller side into shard 0 (ties go to the lower shard).
    ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(kGrid - 1, kGrid)),
              UpdateTicket::kRejected);
    ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(2 * kGrid - 1, 2 * kGrid)),
              UpdateTicket::kRejected);
    EXPECT_EQ(router.stats().shard_migrations, shards == 1 ? 0u : 2u);
    if (batch.empty()) {
      // Eight tree edges whose child subtrees each hold over half of the
      // merged component, spread along the root path: together they predict
      // several times the component's vertex count.
      const RouterView view = router.view();
      std::vector<Vertex> heavy;
      for (Vertex v = 0; v < 3 * kGrid; ++v) {
        if (view.parent_of(v) != kNullVertex &&
            2 * view.subtree_size(v) > 3 * kGrid) {
          heavy.push_back(v);
        }
      }
      std::sort(heavy.begin(), heavy.end(), [&](Vertex a, Vertex b) {
        return view.depth(a) < view.depth(b);
      });
      ASSERT_GE(heavy.size(), 8u);
      for (std::size_t i = 0; batch.size() < 8; i += heavy.size() / 8) {
        batch.push_back(GraphUpdate::delete_edge(view.parent_of(heavy[i]), heavy[i]));
      }
    }
    // Coalesce the batch. A paused writer that is already blocked on its
    // empty queue still drains the first op it sees, then holds it; one
    // that had not got there yet holds before draining anything. Feed it an
    // infeasible self loop first: it is either drained alone (the queue
    // empties) or still queued when the eight ops join it. Either way the
    // eight drain together on resume, and the filter drops the self loop
    // before apply_batch.
    router.pause();
    const UpdateTicket loop = router.submit(GraphUpdate::insert_edge(0, 0));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (router.queue_depth(0) != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::vector<UpdateTicket> tickets;
    for (const GraphUpdate& u : batch) tickets.push_back(router.submit(u));
    router.resume();
    EXPECT_EQ(loop.wait(), UpdateTicket::kRejected);
    for (const UpdateTicket& t : tickets) {
      EXPECT_NE(t.wait(), UpdateTicket::kRejected);
    }
    const std::vector<Vertex> parent = router.assemble_parent();
    router.stop();
    const std::size_t owner = static_cast<std::size_t>(router.shard_of(0));
    EXPECT_EQ(owner, 0u);
    EXPECT_EQ(router.shard_of(2 * kGrid), 0);
    EXPECT_GT(router.core(owner).last_stats().recomputes, 0u);
    EXPECT_EQ(router.stats().max_batch, 8u) << "the batch coalesced";
    if (want_parent.empty()) {
      want_parent = parent;
    } else {
      EXPECT_EQ(parent, want_parent);
    }
  }
}

// Vertex inserts join their batch's segment (DESIGN.md §9). Grids 0 and 4
// share shard 0 at S = 4 as at S = 1, so one coalesced batch that inserts a
// vertex bridging them, reaches the new ids with later edge ops, strips a
// new vertex's only edge and deletes another, lands as one pass with one
// index rebuild and the same bytes at both shard counts.
TEST(ShardRouter, VertexInsertBatchBytesMatchAtEveryShardCount) {
  constexpr int kSide = 8;
  constexpr Vertex kGrid = kSide * kSide;
  constexpr Vertex kFresh = 8 * kGrid;  // the first id an insert assigns
  std::vector<Vertex> want_parent;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServiceConfig config;
    config.num_shards = shards;
    config.max_batch = 9;
    config.start_paused = true;  // the nine ops queue up, then drain as one
    ShardRouter router(disjoint_grids(8, kSide), config);
    ASSERT_EQ(router.shard_of(4 * kGrid), 0);
    const RouterView view = router.view();
    const std::vector<GraphUpdate> batch = {
        GraphUpdate::insert_vertex({5, 4 * kGrid + 4}),  // kFresh: joins grids 0, 4
        GraphUpdate::insert_edge(kFresh, 40),
        GraphUpdate::delete_edge(kFresh, 5),
        GraphUpdate::insert_vertex({}),                      // kFresh + 1
        GraphUpdate::insert_vertex({4 * kGrid + 44}),        // kFresh + 2
        GraphUpdate::delete_edge(kFresh + 2, 4 * kGrid + 44),
        GraphUpdate::insert_vertex({10, kFresh}),            // kFresh + 3
        GraphUpdate::delete_vertex(kFresh + 3),
        GraphUpdate::delete_edge(view.parent_of(20), 20),
    };
    const std::size_t rebuilds = router.core(0).index_rebuilds();
    std::vector<UpdateTicket> tickets;
    for (const GraphUpdate& u : batch) tickets.push_back(router.submit(u));
    router.resume();
    for (const UpdateTicket& t : tickets) {
      EXPECT_NE(t.wait(), UpdateTicket::kRejected);
    }
    EXPECT_EQ(tickets[0].assigned_vertex(), kFresh);
    EXPECT_EQ(tickets[3].assigned_vertex(), kFresh + 1);
    EXPECT_EQ(tickets[4].assigned_vertex(), kFresh + 2);
    EXPECT_EQ(tickets[6].assigned_vertex(), kFresh + 3);
    const std::vector<Vertex> parent = router.assemble_parent();
    router.stop();
    EXPECT_EQ(router.stats().max_batch, batch.size()) << "the batch coalesced";
    EXPECT_EQ(router.core(0).index_rebuilds(), rebuilds + 1);
    EXPECT_GT(router.core(0).last_stats().recomputes, 0u);
    const DynamicDfs& core = router.core(0);
    EXPECT_EQ(core.root_of(kFresh), core.root_of(4 * kGrid));
    EXPECT_EQ(core.root_of(kFresh), core.root_of(0));
    EXPECT_EQ(parent[static_cast<std::size_t>(kFresh + 1)], kNullVertex);
    EXPECT_EQ(parent[static_cast<std::size_t>(kFresh + 2)], kNullVertex);
    EXPECT_FALSE(router.view().contains(kFresh + 3));
    const auto val = validate_dfs_forest(core.graph(), core.parent());
    EXPECT_TRUE(val.ok) << val.reason;
    if (want_parent.empty()) {
      want_parent = parent;
    } else {
      EXPECT_EQ(parent, want_parent);
    }
  }
}

// A live engine fed dynamic_map batches of 14 — most carry vertex inserts,
// which join their segment — against journal replay of the same records, in
// the shard writer's order (pad, then apply, each recorded first): the same
// forest, the same aliveness, and the same RerootStats for the last batch.
TEST(ShardRouter, JournalReplayOfVertexInsertBatchesIsByteIdentical) {
  const WorkloadSpec spec{Scenario::kDynamicMap, 1024, 5};
  const Graph genesis = make_initial_graph(spec);
  UpdateJournal journal(genesis, {});
  DynamicDfs live(genesis);
  WorkloadDriver driver(spec);
  std::uint64_t applied = 0;
  std::size_t insert_batches = 0;
  for (std::uint64_t version = 1; version <= 30; ++version) {
    std::vector<GraphUpdate> batch;
    for (int i = 0; i < 14; ++i) batch.push_back(driver.next());
    journal.record_pad(live.graph().capacity());
    live.pad_capacity(live.graph().capacity());
    journal.record_apply(batch, version + 1, applied + batch.size());
    insert_batches += live.apply_batch(batch).new_vertices.empty() ? 0 : 1;
    applied += batch.size();
  }
  ASSERT_GT(insert_batches, 0u);
  const UpdateJournal::ReplayResult r = journal.replay();
  EXPECT_EQ(r.updates_applied, applied);
  ASSERT_EQ(r.engine.graph().capacity(), live.graph().capacity());
  EXPECT_EQ(std::vector<Vertex>(r.engine.parent().begin(), r.engine.parent().end()),
            std::vector<Vertex>(live.parent().begin(), live.parent().end()));
  const auto alive = [](const DynamicDfs& d) {
    return std::vector<std::uint8_t>(d.graph().alive().begin(), d.graph().alive().end());
  };
  EXPECT_EQ(alive(r.engine), alive(live));
  const RerootStats& a = r.engine.last_stats();
  const RerootStats& b = live.last_stats();
  EXPECT_EQ(a.global_rounds, b.global_rounds);
  EXPECT_EQ(a.components_processed, b.components_processed);
  EXPECT_EQ(a.vertices_traversed, b.vertices_traversed);
  EXPECT_EQ(a.serial_finishes, b.serial_finishes);
  EXPECT_EQ(a.recomputes, b.recomputes);
}

TEST(ShardRouter, CrossShardInsertRunsTheMergeProtocol) {
  ShardRouter router(disjoint_paths(2, 5), {.num_shards = 2});
  ASSERT_EQ(router.shard_of(0), 0);
  ASSERT_EQ(router.shard_of(5), 1);
  EXPECT_FALSE(router.view().same_component(0, 5));
  const std::uint64_t version =
      router.apply_sync(GraphUpdate::insert_edge(4, 5));
  ASSERT_NE(version, UpdateTicket::kRejected);
  // Equal component sizes: the tie breaks to the lower shard id, so shard 0
  // wins and 5..9 migrate into it.
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(router.shard_of(v), 0);
  EXPECT_TRUE(router.view().same_component(0, 9));
  EXPECT_EQ(router.view().root_of(9), router.view().root_of(0));
  const ServiceStats stats = router.stats();
  EXPECT_EQ(stats.cross_shard_inserts, 1u);
  EXPECT_EQ(stats.shard_migrations, 1u);
  // The loser's snapshot no longer answers for the migrated vertices.
  EXPECT_FALSE(router.shard_snapshot(1)->contains(5));
  EXPECT_TRUE(router.shard_snapshot(0)->contains(5));
  // The page renders the router's own counts.
  const std::string page = router.metrics_text();
  EXPECT_NE(page.find("pardfs_shard_migrations_total 1"), std::string::npos);
  EXPECT_NE(page.find("pardfs_cross_shard_inserts_total 1"),
            std::string::npos);
  router.stop();
  // Post-stop the winner's engine holds the whole merged component.
  const ValidationResult ok =
      validate_dfs_forest(router.core(0).graph(), router.core(0).parent());
  EXPECT_TRUE(ok.ok) << ok.reason;
  EXPECT_EQ(router.core(0).graph().num_vertices(), 10);
  EXPECT_EQ(router.core(1).graph().num_vertices(), 0);
}

TEST(ShardRouter, LargerComponentWinsTheMerge) {
  // Path 0 has 8 vertices, path 1 has 3 (built by hand): the merge must pull
  // the smaller component into the larger one's shard.
  Graph g;
  for (int i = 0; i < 11; ++i) g.add_vertex();
  for (int i = 1; i < 8; ++i) {
    g.add_edge(static_cast<Vertex>(i - 1), static_cast<Vertex>(i));
  }
  g.add_edge(8, 9);
  g.add_edge(9, 10);
  ShardRouter router(std::move(g), {.num_shards = 2});
  ASSERT_EQ(router.shard_of(0), 0);
  ASSERT_EQ(router.shard_of(8), 1);
  ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(10, 0)),
            UpdateTicket::kRejected);
  for (Vertex v = 0; v < 11; ++v) EXPECT_EQ(router.shard_of(v), 0);
  router.stop();
}

TEST(ShardRouter, MergeRefreshesBothShardsCutStructures) {
  // Satellite pin: serve_cuts snapshots on BOTH sides of a merge are rebuilt
  // by the protocol's publish pair (winner before the directory flip, loser
  // after), so cut queries answer the merged world immediately.
  ServiceConfig config;
  config.num_shards = 2;
  config.serve_cuts = true;
  ShardRouter router(disjoint_paths(2, 4), config);
  ASSERT_EQ(router.shard_of(0), 0);
  ASSERT_EQ(router.shard_of(4), 1);
  const SnapshotPtr loser_before = router.shard_snapshot(1);
  ASSERT_TRUE(loser_before->serves_cuts());
  EXPECT_TRUE(loser_before->is_bridge(4, 5));
  ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(3, 4)),
            UpdateTicket::kRejected);
  const SnapshotPtr winner_after = router.shard_snapshot(0);
  const SnapshotPtr loser_after = router.shard_snapshot(1);
  // Both shards republished (fresh versions, fresh cut structures).
  EXPECT_GT(winner_after->version(), 1u);
  EXPECT_GT(loser_after->version(), loser_before->version());
  ASSERT_TRUE(winner_after->serves_cuts());
  ASSERT_TRUE(loser_after->serves_cuts());
  // The merged path 0-..-7 makes the new edge (and every path edge) a
  // bridge — served from the winner...
  EXPECT_TRUE(winner_after->is_bridge(3, 4));
  EXPECT_TRUE(winner_after->is_articulation(4));
  // ...while the loser's refreshed structure dropped the migrated component
  // entirely instead of serving its stale pre-merge answers.
  EXPECT_FALSE(loser_after->contains(4));
  EXPECT_FALSE(loser_after->is_bridge(4, 5));
  EXPECT_EQ(loser_after->bridges().size(), 0u);
  // The view routes cut queries to whoever owns the vertex now.
  EXPECT_TRUE(router.view().is_bridge(3, 4));
  EXPECT_TRUE(router.view().is_articulation(4));
  EXPECT_EQ(router.view().bridges().size(), 7u);
  router.stop();
}

TEST(ShardRouter, VertexInsertsAssignGloballyUniqueDenseIds) {
  ShardRouter router(disjoint_paths(4, 4), {.num_shards = 4});
  // Isolated inserts round-robin across shards but draw from one id space.
  std::vector<Vertex> ids;
  for (int i = 0; i < 8; ++i) {
    const UpdateTicket t = router.submit(GraphUpdate::insert_vertex({}));
    ASSERT_NE(t.wait(), UpdateTicket::kRejected);
    ids.push_back(t.assigned_vertex());
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], 16 + i);
    EXPECT_TRUE(router.view().contains(16 + i));
  }
  EXPECT_EQ(router.capacity(), 24);
  // A neighbor-spanning insert merges its neighbors' components first.
  const UpdateTicket t = router.submit(GraphUpdate::insert_vertex({0, 4, 8}));
  ASSERT_NE(t.wait(), UpdateTicket::kRejected);
  EXPECT_EQ(t.assigned_vertex(), 24);
  EXPECT_TRUE(router.view().same_component(0, 8));
  EXPECT_GE(router.stats().shard_migrations, 2u);
  router.stop();
}

TEST(ShardRouter, ViewAnswersTotallyAcrossShards) {
  ShardRouter router(disjoint_paths(4, 4), {.num_shards = 4});
  const RouterView view = router.view();
  // Unknown ids: benign defaults, never aborts.
  EXPECT_FALSE(view.contains(-1));
  EXPECT_FALSE(view.contains(999));
  EXPECT_EQ(view.parent_of(999), kNullVertex);
  EXPECT_EQ(view.root_of(-7), kNullVertex);
  EXPECT_EQ(view.depth(999), -1);
  EXPECT_EQ(view.subtree_size(999), 0);
  EXPECT_TRUE(view.path_to_root(999).empty());
  EXPECT_EQ(view.snapshot_of(999), nullptr);
  // Cross-shard pairs: component-disjoint answers.
  EXPECT_FALSE(view.same_component(0, 4));
  EXPECT_FALSE(view.reachable(0, 4));
  EXPECT_FALSE(view.is_ancestor(0, 4));
  EXPECT_EQ(view.lca(0, 4), kNullVertex);
  EXPECT_FALSE(view.is_bridge(0, 4));
  // Intra-shard pairs answer exactly like the snapshot.
  EXPECT_TRUE(view.same_component(0, 3));
  EXPECT_EQ(view.root_of(3), view.root_of(0));
  EXPECT_EQ(view.depth(0) + 1, view.depth(1));
  // A dead vertex keeps resolving to the shard it died on.
  ASSERT_NE(router.apply_sync(GraphUpdate::delete_vertex(3)),
            UpdateTicket::kRejected);
  EXPECT_GE(router.shard_of(3), 0);
  EXPECT_FALSE(view.contains(3));
  router.stop();
}

TEST(ShardRouter, DeleteEdgeAcrossShardsIsInfeasible) {
  ShardRouter router(disjoint_paths(2, 4), {.num_shards = 2});
  // No edge can span shards (shards own whole components), so this must be
  // the same rejection the unsharded service gives for a non-edge.
  EXPECT_EQ(router.apply_sync(GraphUpdate::delete_edge(0, 4)),
            UpdateTicket::kRejected);
  EXPECT_EQ(router.stats().updates_rejected, 1u);
  EXPECT_EQ(router.stats().shard_migrations, 0u);
  router.stop();
}

TEST(ShardRouter, PauseHoldsEveryShardsQueue) {
  ServiceConfig config;
  config.num_shards = 4;
  config.start_paused = true;
  ShardRouter router(disjoint_paths(4, 4), config);
  std::vector<UpdateTicket> tickets;
  for (Vertex c = 0; c < 4; ++c) {
    tickets.push_back(
        router.submit(GraphUpdate::insert_edge(c * 4, c * 4 + 2)));
  }
  EXPECT_EQ(router.queue_depth(), 4u);
  for (const UpdateTicket& t : tickets) EXPECT_FALSE(t.done());
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(router.queue_depth(s), 1u);
  router.resume();
  for (const UpdateTicket& t : tickets) {
    EXPECT_NE(t.wait(), UpdateTicket::kRejected);
  }
  EXPECT_EQ(router.queue_depth(), 0u);
  router.stop();
}

TEST(ShardRouter, ConcurrentProducersEveryTicketResolves) {
  ServiceConfig config;
  config.num_shards = 4;
  config.queue_capacity = 32;
  ShardRouter router(disjoint_paths(8, 8), config);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 120;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<std::uint64_t>(7000 + p));
      for (int i = 0; i < kPerProducer; ++i) {
        const Vertex u = static_cast<Vertex>(rng.below(64));
        const Vertex v = static_cast<Vertex>(rng.below(64));
        if (u == v) continue;
        const bool insert = rng.below(2) == 0;
        const std::uint64_t r = router.apply_sync(
            insert ? GraphUpdate::insert_edge(u, v)
                   : GraphUpdate::delete_edge(u, v));
        if (r != UpdateTicket::kRejected) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();
  EXPECT_GT(accepted.load(), 0u);
  EXPECT_EQ(router.stats().updates_applied, accepted.load());
  // Each shard's final forest is a valid DFS forest of its own graph.
  for (std::size_t s = 0; s < 4; ++s) {
    const ValidationResult ok =
        validate_dfs_forest(router.core(s).graph(), router.core(s).parent());
    EXPECT_TRUE(ok.ok) << "shard " << s << ": " << ok.reason;
  }
}

TEST(ShardRouter, SubmitRacingStopIsRejectedNotAborted) {
  // PR 4 regression, re-run against the router: a submit losing the race
  // against stop() must come back pre-acknowledged as kRejected on every
  // shard's queue — wait() never trips on an invalid ticket, the process
  // never aborts. Cross-shard ops are in the mix so the gateway/merge path
  // shuts down cleanly too.
  const Graph initial = disjoint_paths(4, 4);
  for (int iter = 0; iter < 300; ++iter) {
    ShardRouter router(initial, {.num_shards = 4});
    std::atomic<bool> go{false};
    std::thread producer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (Vertex i = 0; i < 6; ++i) {
        const UpdateTicket t =
            router.submit(GraphUpdate::insert_edge(i, 15 - i));
        const std::uint64_t direct = t.wait();
        const std::uint64_t synced =
            router.apply_sync(GraphUpdate::delete_edge(i, 15 - i));
        if (direct == UpdateTicket::kRejected &&
            synced == UpdateTicket::kRejected) {
          break;  // router fully stopped under us
        }
      }
    });
    go.store(true, std::memory_order_release);
    router.stop();
    producer.join();
  }
}

// Every shard's published snapshot describes its engine: the same parent
// row (sizes included), liveness and vertex count. Call after stop().
void expect_snapshots_describe_engines(const ShardRouter& router) {
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    const SnapshotPtr snap = router.shard_snapshot(s);
    const DynamicDfs& core = router.core(s);
    EXPECT_EQ(snap->capacity(), core.graph().capacity());
    EXPECT_EQ(std::vector<Vertex>(snap->parent().begin(), snap->parent().end()),
              std::vector<Vertex>(core.parent().begin(), core.parent().end()));
    for (Vertex v = 0; v < core.graph().capacity(); ++v) {
      ASSERT_EQ(snap->contains(v), core.graph().is_alive(v)) << "id " << v;
    }
    EXPECT_EQ(snap->num_vertices(), core.graph().num_vertices());
  }
}

TEST(ShardRouter, SnapshotsDescribeTheirEngines) {
  const WorkloadSpec spec{Scenario::kInsertChurn, 64, 5};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    WorkloadDriver driver(spec);
    ShardRouter router(make_initial_graph(spec), {.num_shards = shards});
    for (int i = 0; i < 200; ++i) {
      ASSERT_NE(router.apply_sync(driver.next()), UpdateTicket::kRejected);
    }
    router.stop();
    expect_snapshots_describe_engines(router);
  }
  // The pad case. disjoint_paths(4, 8): path c is ids [8c, 8c + 8), on
  // shard c. An insert on shard 0 leaves shard 1 lagging the id space; a
  // refused insert there still pads it (and publishes nothing), and the
  // back-edge insert after it publishes without a forest change.
  ShardRouter router(disjoint_paths(4, 8), {.num_shards = 4});
  ASSERT_NE(router.apply_sync(GraphUpdate::insert_vertex({0})),
            UpdateTicket::kRejected);
  ASSERT_NE(router.apply_sync(GraphUpdate::delete_vertex(15)),
            UpdateTicket::kRejected);
  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_vertex({15})),
            UpdateTicket::kRejected);  // its neighbor died on shard 1
  ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(8, 10)),
            UpdateTicket::kRejected);  // ancestor pair on path 1
  router.stop();
  EXPECT_EQ(router.core(1).graph().capacity(), 33);
  EXPECT_EQ(router.shard_stats(1).structural, 1u);  // the delete only
  expect_snapshots_describe_engines(router);
}

TEST(ShardRouter, ShardStatsAndLabeledSeriesPerShard) {
  ShardRouter router(disjoint_paths(4, 4), {.num_shards = 4});
  ASSERT_NE(router.apply_sync(GraphUpdate::insert_edge(0, 2)),
            UpdateTicket::kRejected);
  ServiceStats total;
  for (std::size_t s = 0; s < 4; ++s) {
    const ServiceStats st = router.shard_stats(s);
    total.updates_applied += st.updates_applied;
    total.batches += st.batches;
  }
  EXPECT_EQ(total.updates_applied, 1u);
  EXPECT_EQ(router.stats().updates_applied, 1u);
  // Eagerly registered per-shard series: a fresh page already carries every
  // shard's ack-latency / queue / coalesce families at zero.
  const std::string page = router.metrics_text();
  for (int s = 0; s < 4; ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    EXPECT_NE(page.find("pardfs_ack_latency_us_count{" + label + "}"),
              std::string::npos)
        << "missing ack series for shard " << s;
    EXPECT_NE(page.find("pardfs_queue_depth{" + label + "}"),
              std::string::npos);
    EXPECT_NE(
        page.find("pardfs_update_phase_us_count{phase=\"queue_wait\"," +
                  label + "}"),
        std::string::npos);
  }
  EXPECT_NE(page.find("pardfs_shard_migrations_total 0"), std::string::npos);
  EXPECT_NE(page.find("pardfs_cross_shard_inserts_total 0"),
            std::string::npos);
  router.stop();
}

// One replay that raises every router event — infeasible rejects, a
// cross-shard merge, a writer crash with its retryable ack and recovery,
// admission sheds and a submit after stop() — while a second router serves
// in the same process. Each router's pages carry its own counts and nothing
// of the other's, in every build (recording compiled in or out).
TEST(ShardRouter, MetricsPagesCountEachRoutersOwnEvents) {
  ShardRouter other(gen::path(8));
  ServiceConfig config;
  config.num_shards = 2;
  config.max_queue_depth = 2;
  // disjoint_paths(4, 4): path c is ids [4c, 4c + 4), on shard c % 2.
  ShardRouter router(disjoint_paths(4, 4), config);

  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(0, 99)),
            UpdateTicket::kRejected);
  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(2, 2)),
            UpdateTicket::kRejected);
  // Paths 0 and 1: one merge, one migration.
  EXPECT_NE(router.apply_sync(GraphUpdate::insert_edge(3, 4)),
            UpdateTicket::kRejected);

  // Shard 1's writer crashes on its next drain; the update it held acks
  // kRetryable, the watchdog replays the journal, and the retry applies.
  router.inject_writer_failure(1);
  const SubmitOutcome retried =
      submit_with_retry(router, GraphUpdate::insert_edge(12, 14));
  EXPECT_TRUE(retried.applied());
  EXPECT_GT(retried.attempts, 1);

  // Paused, shard 0's queue fills to the depth bound (the writer may already
  // hold the first update, drained before the pause landed) and sheds.
  router.pause();
  std::vector<UpdateTicket> held;
  for (const Vertex v : {5, 6, 7, 1}) {
    held.push_back(router.submit(GraphUpdate::insert_edge(0, v)));
  }
  router.resume();
  for (const UpdateTicket& t : held) (void)t.wait();

  for (int i = 0; i < 3; ++i) {
    (void)other.apply_sync(GraphUpdate::insert_edge(0, 2 + i));
  }
  router.stop();
  EXPECT_EQ(router.submit(GraphUpdate::insert_edge(8, 10)).wait(),
            UpdateTicket::kRejected);
  other.stop();

  const ServiceStats st = router.stats();
  EXPECT_GE(st.updates_rejected, 2u);
  EXPECT_EQ(st.cross_shard_inserts, 1u);
  EXPECT_EQ(st.shard_migrations, 1u);
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_GE(st.retryable_acks, 1u);
  EXPECT_GE(st.overload_sheds, 1u);
  EXPECT_EQ(st.rejected_shutdown, 1u);
  expect_pages_match(router, st);

  const ServiceStats other_st = other.stats();
  EXPECT_EQ(other_st.updates_applied, 3u);
  EXPECT_EQ(other_st.recoveries, 0u);
  expect_pages_match(other, other_st);
}

}  // namespace
}  // namespace pardfs::service
