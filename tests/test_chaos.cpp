// Crash-tolerant serving (DESIGN.md §13): journal-replay recovery is
// byte-identical at 1 / 4 / 16 shards, reads keep serving while a shard is
// down, the ack vocabulary (kRetryable / kTimeout / kOverloaded) is total,
// the client retry loop lands every transient, writer-side invariant
// failures recover while reader-side checks still abort, stop() during
// in-flight merges drains instead of deadlocking, and the chaos hooks are
// provably inert when compiled out (and provably armed when compiled in).
#include "testing/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "service/dfs_service.hpp"
#include "service/journal.hpp"
#include "service/shard_router.hpp"
#include "service/workload.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace pardfs::service {
namespace {

using chaos::FaultPlan;
using chaos::FaultPoint;
using chaos::FaultSpec;

// k disjoint paths of `len` vertices each (path c covers [c*len, (c+1)*len)):
// round-robin component placement puts path c on shard c % S.
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

// A deterministic, always-feasible op stream over a private mirror: edge
// toggles between random alive vertices, occasional attached vertex inserts
// and vertex deletions. Every op is applied to the mirror as generated, so a
// service driven by the stream stays in lock-step with the mirror — vertex
// ids included, because Graph::add_vertex appends at capacity() and the
// router's global id counter advances identically.
class ToggleStream {
 public:
  ToggleStream(Graph mirror, std::uint64_t seed)
      : mirror_(std::move(mirror)), rng_(seed) {}

  const Graph& mirror() const { return mirror_; }
  // Mirrors DynamicDfs::pad_capacity, so later inserts get the engine's ids.
  void pad_to(Vertex capacity) { mirror_.pad_to(capacity); }

  GraphUpdate next() {
    for (;;) {
      const std::uint64_t dice = rng_.below(100);
      if (dice < 80) {
        const Vertex u = random_alive();
        const Vertex v = random_alive();
        if (u == v) continue;
        if (mirror_.has_edge(u, v)) {
          mirror_.remove_edge(u, v);
          return GraphUpdate::delete_edge(u, v);
        }
        mirror_.add_edge(u, v);
        return GraphUpdate::insert_edge(u, v);
      }
      if (dice < 92) {
        std::vector<Vertex> nbrs{random_alive()};
        mirror_.add_vertex(nbrs);
        return GraphUpdate::insert_vertex(std::move(nbrs));
      }
      if (mirror_.num_vertices() <= 24) continue;  // keep local pairs plentiful
      const Vertex d = random_alive();
      mirror_.remove_vertex(d);
      return GraphUpdate::delete_vertex(d);
    }
  }

  // A feasible edge toggle whose endpoints the router currently places on
  // ONE shard — the deterministic injection vehicle: poisoning that shard is
  // guaranteed to crash the writer that drains this op. Applies to the
  // mirror exactly like next(). False only if no shard owns two alive
  // vertices (cannot happen with the >= 24-alive floor above).
  bool local_toggle(const ShardRouter& router, GraphUpdate* op, int* shard) {
    std::vector<std::vector<Vertex>> by_shard(router.num_shards());
    for (Vertex v = 0; v < mirror_.capacity(); ++v) {
      if (!mirror_.is_alive(v)) continue;
      const int s = router.shard_of(v);
      if (s < 0) continue;
      auto& bucket = by_shard[static_cast<std::size_t>(s)];
      bucket.push_back(v);
      if (bucket.size() < 2) continue;
      const Vertex a = bucket.front();
      const Vertex b = bucket.back();
      *shard = s;
      if (mirror_.has_edge(a, b)) {
        mirror_.remove_edge(a, b);
        *op = GraphUpdate::delete_edge(a, b);
      } else {
        mirror_.add_edge(a, b);
        *op = GraphUpdate::insert_edge(a, b);
      }
      return true;
    }
    return false;
  }

 private:
  Vertex random_alive() {
    for (;;) {
      const Vertex v = static_cast<Vertex>(
          rng_.below(static_cast<std::uint64_t>(mirror_.capacity())));
      if (mirror_.is_alive(v)) return v;
    }
  }

  Graph mirror_;
  Rng rng_;
};

// The shard that would drain `u` — only when every referenced endpoint
// resolves to the same shard (injecting there is guaranteed to crash the
// writer that processes it). -1 otherwise.
int local_shard_of(const ShardRouter& router, const GraphUpdate& u) {
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge: {
      const int a = router.shard_of(u.u);
      const int b = router.shard_of(u.v);
      return a == b ? a : -1;
    }
    case GraphUpdate::Kind::kDeleteVertex:
      return router.shard_of(u.u);
    case GraphUpdate::Kind::kInsertVertex:
      return -1;  // isolated inserts round-robin; not guaranteed local
  }
  return -1;
}

ServiceConfig supervised_config(std::size_t shards) {
  ServiceConfig config;
  config.num_shards = shards;
  config.max_batch = 1;  // per-update drains: deterministic lock-step
  config.watchdog_poll_ms = 1;
  return config;
}

// ---- journal replay: the determinism core ----------------------------------

TEST(Journal, ReplayReconstructsByteIdenticalEngine) {
  Rng rng(7);
  Graph g = gen::random_connected(48, 96, rng);
  UpdateJournal journal(g, {});
  DynamicDfs live(g);
  ToggleStream stream(g, 11);

  std::uint64_t version = 1;
  std::uint64_t applied = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<GraphUpdate> batch;
    for (int i = 0; i < 3; ++i) batch.push_back(stream.next());
    // Mirror the shard writer's engine mutation order: pad, then apply, each
    // recorded before it runs (the WAL point).
    journal.record_pad(live.graph().capacity());
    live.pad_capacity(live.graph().capacity());
    journal.record_apply(batch, version + 1, applied + batch.size());
    live.apply_batch(batch);
    ++version;
    applied += batch.size();
  }

  const UpdateJournal::ReplayResult r = journal.replay();
  EXPECT_EQ(r.version, version);
  EXPECT_EQ(r.updates_applied, applied);
  ASSERT_EQ(r.engine.graph().capacity(), live.graph().capacity());
  EXPECT_EQ(r.engine.graph().num_vertices(), live.graph().num_vertices());
  EXPECT_EQ(r.engine.graph().num_edges(), live.graph().num_edges());
  for (Vertex v = 0; v < live.graph().capacity(); ++v) {
    ASSERT_EQ(r.engine.parent()[static_cast<std::size_t>(v)],
              live.parent()[static_cast<std::size_t>(v)])
        << "parent diverges at vertex " << v;
    ASSERT_EQ(r.engine.graph().is_alive(v), live.graph().is_alive(v))
        << "aliveness diverges at vertex " << v;
  }
}

// checkpoint() drops the recorded prefix (bounding memory and replay time in
// a long-running service) and replay from the checkpoint base — the verbatim
// graph + forest transplant — stays byte-identical to the live engine.
TEST(Journal, CheckpointTruncatesAndReplayStaysByteIdentical) {
  Rng rng(9);
  Graph g = gen::random_connected(48, 96, rng);
  UpdateJournal journal(g, {});
  DynamicDfs live(g);
  ToggleStream stream(g, 13);

  std::uint64_t version = 1;
  std::uint64_t applied = 0;
  const auto round = [&] {
    std::vector<GraphUpdate> batch;
    for (int i = 0; i < 3; ++i) batch.push_back(stream.next());
    journal.record_pad(live.graph().capacity());
    live.pad_capacity(live.graph().capacity());
    journal.record_apply(batch, version + 1, applied + batch.size());
    live.apply_batch(batch);
    ++version;
    applied += batch.size();
  };
  for (int r = 0; r < 8; ++r) round();
  ASSERT_EQ(journal.entries(), 16u);
  journal.checkpoint(live.graph(), live.parent(), version, applied);
  EXPECT_EQ(journal.entries(), 0u);  // the recorded prefix is gone
  for (int r = 0; r < 8; ++r) round();
  EXPECT_EQ(journal.entries(), 16u);  // only post-checkpoint history remains

  const UpdateJournal::ReplayResult r = journal.replay();
  EXPECT_EQ(r.version, version);
  EXPECT_EQ(r.updates_applied, applied);
  ASSERT_EQ(r.engine.graph().capacity(), live.graph().capacity());
  EXPECT_EQ(r.engine.graph().num_vertices(), live.graph().num_vertices());
  EXPECT_EQ(r.engine.graph().num_edges(), live.graph().num_edges());
  for (Vertex v = 0; v < live.graph().capacity(); ++v) {
    ASSERT_EQ(r.engine.parent()[static_cast<std::size_t>(v)],
              live.parent()[static_cast<std::size_t>(v)])
        << "parent diverges at vertex " << v;
    ASSERT_EQ(r.engine.graph().is_alive(v), live.graph().is_alive(v))
        << "aliveness diverges at vertex " << v;
  }

  // A second checkpoint directly after the first replay point: replay with
  // zero entries is just the restored base.
  journal.checkpoint(live.graph(), live.parent(), version, applied);
  const UpdateJournal::ReplayResult r2 = journal.replay();
  EXPECT_EQ(r2.version, version);
  for (Vertex v = 0; v < live.graph().capacity(); ++v) {
    ASSERT_EQ(r2.engine.parent()[static_cast<std::size_t>(v)],
              live.parent()[static_cast<std::size_t>(v)]);
  }
}

// Back-to-back checkpoints overwrite the same flat buffers. The history
// between and after them deletes vertices, inserts fresh ids and pads the id
// space; replay must rebuild the live engine exactly: parents, liveness,
// capacity and the order of every adjacency row (the next DFS walks rows in
// that order, so a reordered row would fork the forest later).
TEST(Journal, BackToBackCheckpointsReplayRowsVerbatim) {
  Rng rng(21);
  Graph g = gen::random_connected(64, 128, rng);
  UpdateJournal journal(g, {});
  DynamicDfs live(g);
  ToggleStream stream(g, 31);

  std::uint64_t version = 1;
  std::uint64_t applied = 0;
  int vertex_deletes = 0;
  int vertex_inserts = 0;
  const auto rounds = [&](int count) {
    for (int r = 0; r < count; ++r) {
      std::vector<GraphUpdate> batch;
      for (int i = 0; i < 3; ++i) batch.push_back(stream.next());
      for (const GraphUpdate& u : batch) {
        vertex_deletes += u.kind == GraphUpdate::Kind::kDeleteVertex ? 1 : 0;
        vertex_inserts += u.kind == GraphUpdate::Kind::kInsertVertex ? 1 : 0;
      }
      journal.record_apply(batch, version + 1, applied + batch.size());
      live.apply_batch(batch);
      ++version;
      applied += batch.size();
    }
  };
  const auto expect_replay_matches_live = [&](const char* label) {
    const UpdateJournal::ReplayResult r = journal.replay();
    EXPECT_EQ(r.version, version) << label;
    EXPECT_EQ(r.updates_applied, applied) << label;
    ASSERT_EQ(r.engine.graph().capacity(), live.graph().capacity()) << label;
    for (Vertex v = 0; v < live.graph().capacity(); ++v) {
      ASSERT_EQ(r.engine.parent()[static_cast<std::size_t>(v)],
                live.parent()[static_cast<std::size_t>(v)])
          << label << ": parent diverges at vertex " << v;
      ASSERT_EQ(r.engine.graph().is_alive(v), live.graph().is_alive(v))
          << label << ": aliveness diverges at vertex " << v;
      const auto want = live.graph().neighbors(v);
      const auto got = r.engine.graph().neighbors(v);
      ASSERT_EQ(std::vector<Vertex>(got.begin(), got.end()),
                std::vector<Vertex>(want.begin(), want.end()))
          << label << ": row order diverges at vertex " << v;
    }
  };

  rounds(12);
  journal.checkpoint(live.graph(), live.parent(), version, applied);
  rounds(8);
  const Vertex padded = live.graph().capacity() + 7;
  journal.record_pad(padded);
  live.pad_capacity(padded);
  stream.pad_to(padded);
  rounds(8);
  journal.checkpoint(live.graph(), live.parent(), version, applied);
  EXPECT_EQ(journal.entries(), 0u);
  expect_replay_matches_live("at the second checkpoint");
  rounds(12);
  expect_replay_matches_live("after the second checkpoint");
  EXPECT_GT(vertex_deletes, 0);
  EXPECT_GT(vertex_inserts, 0);
  EXPECT_GT(live.graph().capacity(), padded);  // fresh ids past the pad
}

TEST(Journal, FileBackingWritesAReadableLog) {
  const std::string prefix = ::testing::TempDir() + "pardfs_chaos_journal_";
  {
    ServiceConfig config = supervised_config(2);
    config.journal_path_prefix = prefix;
    ShardRouter router(disjoint_paths(2, 4), config);
    (void)router.apply_sync(GraphUpdate::insert_edge(0, 2));
    router.stop();
  }
  std::FILE* f = std::fopen((prefix + "0.log").c_str(), "r");
  ASSERT_NE(f, nullptr) << "journal debug log was not created";
  char buf[64];
  EXPECT_NE(std::fgets(buf, sizeof buf, f), nullptr) << "log is empty";
  std::fclose(f);
}

// ---- crash -> journal-replay failover, end to end ---------------------------

// Drives the identical always-feasible stream through a supervised S-shard
// router and an un-faulted 1-shard reference, lock-step, killing the writer
// about to drain an op roughly every sixth update (plus a deterministic
// six-kill epilogue so every shard count gets real failovers). Every kill
// must ack its op kRetryable, recover by journal replay, land the retried
// op — and the final assembled forest must match the reference byte for
// byte.
void run_recovery_differential(std::size_t shards,
                               std::size_t checkpoint_entries = 256) {
  ServiceConfig subject_config = supervised_config(shards);
  subject_config.journal_checkpoint_entries = checkpoint_entries;
  ShardRouter subject(disjoint_paths(16, 4), subject_config);
  ShardRouter reference(disjoint_paths(16, 4), supervised_config(1));
  ToggleStream stream(disjoint_paths(16, 4), 23);

  std::uint64_t injections = 0;
  const auto drive = [&](const GraphUpdate& u, int i) {
    const SubmitOutcome out = submit_with_retry(subject, u);
    ASSERT_TRUE(out.applied())
        << "subject lost feasible update " << i << " (result "
        << UpdateTicket::status_name(out.result) << ")";
    UpdateTicket rt = reference.submit(u);
    ASSERT_FALSE(UpdateTicket::is_status(rt.wait()))
        << "reference rejected feasible update " << i;
    if (u.kind == GraphUpdate::Kind::kInsertVertex) {
      ASSERT_EQ(out.assigned_vertex, rt.assigned_vertex())
          << "vertex-id divergence after recovery at update " << i;
    }
  };
  for (int i = 0; i < 48; ++i) {
    const GraphUpdate u = stream.next();
    if (i % 6 == 5) {
      const int s = local_shard_of(subject, u);
      if (s >= 0) {
        subject.inject_writer_failure(static_cast<std::size_t>(s));
        ++injections;
      }
    }
    drive(u, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int k = 0; k < 6; ++k) {
    GraphUpdate u;
    int s = -1;
    ASSERT_TRUE(stream.local_toggle(subject, &u, &s));
    subject.inject_writer_failure(static_cast<std::size_t>(s));
    ++injections;
    drive(u, 48 + k);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_GE(injections, 6u);
  EXPECT_EQ(subject.stats().recoveries, injections);
  EXPECT_EQ(subject.stats().retryable_acks, injections);

  const std::vector<Vertex> got = subject.assemble_parent();
  const std::vector<Vertex> want = reference.assemble_parent();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v], want[v])
        << "parent diverges at vertex " << v << " (" << shards << " shards)";
  }
  EXPECT_EQ(subject.assemble_alive(), reference.assemble_alive());
  subject.stop();
  reference.stop();
}

TEST(Recovery, ByteIdenticalAfterFailoverAt1Shard) {
  run_recovery_differential(1);
}
TEST(Recovery, ByteIdenticalAfterFailoverAt4Shards) {
  run_recovery_differential(4);
}
TEST(Recovery, ByteIdenticalAfterFailoverAt16Shards) {
  run_recovery_differential(16);
}
// An aggressive checkpoint bound makes every failover replay from a recent
// checkpoint base instead of genesis; the recovered forests must still match
// the reference byte for byte.
// Every checkpoint the router counts is also timed into the
// pardfs_journal_checkpoint_us histogram.
TEST(Recovery, ByteIdenticalWithAggressiveJournalCheckpoints) {
  obs::Registry& reg = obs::Registry::global();
  const obs::Counter& checkpoints = reg.counter("pardfs_journal_checkpoints_total");
  const obs::Histogram& timed = reg.histogram("pardfs_journal_checkpoint_us", "", 1e-3);
  const std::uint64_t counted_before = checkpoints.value();
  const std::uint64_t timed_before = timed.count();
  run_recovery_differential(4, /*checkpoint_entries=*/4);
  EXPECT_EQ(timed.count() - timed_before, checkpoints.value() - counted_before);
#if !defined(PARDFS_NO_METRICS)
  EXPECT_GT(timed.count(), timed_before);
#endif
}

TEST(Recovery, DfsServiceFacadeRecoversToo) {
  DfsService svc(gen::path(16), supervised_config(1));
  ASSERT_EQ(svc.apply_sync(GraphUpdate::insert_edge(0, 5)), 2u);
  svc.inject_writer_failure();
  const SubmitOutcome out =
      submit_with_retry(svc.router(), GraphUpdate::insert_edge(3, 9));
  EXPECT_TRUE(out.applied());
  EXPECT_GT(out.attempts, 1);  // the first attempt died with the writer
  EXPECT_EQ(svc.stats().recoveries, 1u);
  // The recovered snapshot serves the retried update: 15 path edges + 2.
  EXPECT_EQ(svc.snapshot()->num_edges(), 17);
  svc.stop();
}

// Readers must never block (or go non-total) while writers crash and
// recover: a reader thread hammers the view through repeated kill/recover
// cycles; every query must return (a hang fails via the ctest timeout).
TEST(Recovery, ReadsKeepServingThroughFailovers) {
  ShardRouter router(disjoint_paths(4, 16), supervised_config(4));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    const RouterView view = router.view();
    while (!stop.load(std::memory_order_acquire)) {
      for (Vertex v = 0; v < 64; ++v) {
        (void)view.contains(v);
        (void)view.root_of(v);
        (void)view.depth(v);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  ToggleStream stream(disjoint_paths(4, 16), 31);
  std::uint64_t injections = 0;
  bool wedged = false;
  for (int i = 0; i < 10 && !wedged; ++i) {
    for (int j = 0; j < 3; ++j) {
      const SubmitOutcome out = submit_with_retry(router, stream.next());
      EXPECT_TRUE(out.applied());
      wedged = wedged || !out.applied();
    }
    GraphUpdate u;
    int s = -1;
    if (!stream.local_toggle(router, &u, &s)) break;
    router.inject_writer_failure(static_cast<std::size_t>(s));
    ++injections;
    const SubmitOutcome out = submit_with_retry(router, u);
    EXPECT_TRUE(out.applied());
    wedged = wedged || !out.applied();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(wedged);
  EXPECT_EQ(injections, 10u);
  EXPECT_EQ(router.stats().recoveries, injections);
  EXPECT_GT(reads.load(), 0u);
  router.stop();
}

// With the watchdog off, a crashed shard degrades to reads-only: its last
// snapshot keeps serving, other shards keep applying, and stop() performs
// the deferred recovery and flushes the dead shard's queued work kRetryable
// so no ticket is ever left pending.
TEST(Recovery, WatchdogOffDegradesToReadsThenRecoversAtStop) {
  ServiceConfig config = supervised_config(2);
  config.watchdog_poll_ms = 0;
  ShardRouter router(disjoint_paths(2, 8), config);
  const Vertex probe = 2;  // component 0 -> shard 0
  const Vertex root_before = router.view().root_of(probe);

  router.inject_writer_failure(0);
  UpdateTicket lost = router.submit(GraphUpdate::insert_edge(0, 4));
  EXPECT_EQ(lost.wait(), UpdateTicket::kRetryable);

  // Degraded: reads on the dead shard still answer from the last snapshot.
  EXPECT_EQ(router.view().root_of(probe), root_before);
  EXPECT_EQ(router.stats().recoveries, 0u);

  // Writes to the dead shard queue up un-acked (nobody will drain them)...
  UpdateTicket queued;
  ASSERT_TRUE(router.try_submit(GraphUpdate::insert_edge(1, 5), &queued));
  EXPECT_FALSE(queued.done());
  // ...while the live shard keeps applying normally.
  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(8, 12)), 2u);

  router.stop();
  EXPECT_EQ(router.stats().recoveries, 1u);
  // stop()'s totality sweep: work a dead writer never drained (so never
  // journaled) is flushed kRetryable, not silently dropped or applied.
  EXPECT_EQ(queued.wait(), UpdateTicket::kRetryable);
}

// No journal + a crash = the shard is truly unrecoverable: reads degrade
// gracefully, and stop() still acks every stranded ticket kRetryable.
TEST(Recovery, JournalDisabledDegradesAndFlushesTicketsAtStop) {
  ServiceConfig config = supervised_config(2);
  config.enable_journal = false;
  ShardRouter router(disjoint_paths(2, 8), config);
  const Vertex root_before = router.view().root_of(2);

  router.inject_writer_failure(0);
  UpdateTicket lost = router.submit(GraphUpdate::insert_edge(0, 4));
  EXPECT_EQ(lost.wait(), UpdateTicket::kRetryable);

  UpdateTicket stranded;
  ASSERT_TRUE(router.try_submit(GraphUpdate::insert_edge(1, 5), &stranded));
  EXPECT_EQ(router.view().root_of(2), root_before);  // reads still serve

  router.stop();
  EXPECT_EQ(router.stats().recoveries, 0u);
  EXPECT_EQ(stranded.wait(), UpdateTicket::kRetryable);
  EXPECT_GE(router.stats().retryable_acks, 2u);
}

// ---- the ack vocabulary is total --------------------------------------------

TEST(Tickets, WaitForTimesOutThenResolves) {
  ServiceConfig config;
  config.start_paused = true;
  DfsService svc(gen::path(8), config);
  UpdateTicket t = svc.submit(GraphUpdate::insert_edge(0, 4));
  // Paused writer: the deadline passes with the ticket still pending.
  EXPECT_EQ(t.wait_for(std::chrono::milliseconds(20)), UpdateTicket::kTimeout);
  EXPECT_FALSE(t.done());  // kTimeout never acks the ticket
  svc.resume();
  const std::uint64_t v = t.wait();
  EXPECT_FALSE(UpdateTicket::is_status(v));
  // A later bounded wait on the resolved ticket returns the same version.
  EXPECT_EQ(t.wait_for(std::chrono::milliseconds(1)), v);
  svc.stop();
}

TEST(Tickets, AdmissionControlShedsOverloaded) {
  ServiceConfig config;
  config.start_paused = true;  // the writer never drains: depth is exact
  config.max_queue_depth = 1;
  ShardRouter router(gen::path(8), config);
  UpdateTicket first = router.submit(GraphUpdate::insert_edge(0, 2));
  EXPECT_FALSE(first.done());

  UpdateTicket shed = router.submit(GraphUpdate::insert_edge(0, 3));
  EXPECT_EQ(shed.wait(), UpdateTicket::kOverloaded);

  // try_submit's contract stays "true = you hold a ticket": a shed comes
  // back true with the ticket pre-acked kOverloaded.
  UpdateTicket shed2;
  ASSERT_TRUE(router.try_submit(GraphUpdate::insert_edge(0, 4), &shed2));
  EXPECT_EQ(shed2.wait(), UpdateTicket::kOverloaded);
  EXPECT_EQ(router.stats().overload_sheds, 2u);

  router.resume();
  EXPECT_FALSE(UpdateTicket::is_status(first.wait()));
  router.stop();
}

TEST(Tickets, StatusVocabularyIsWellFormed) {
  EXPECT_TRUE(UpdateTicket::is_status(UpdateTicket::kRejected));
  EXPECT_TRUE(UpdateTicket::is_status(UpdateTicket::kRetryable));
  EXPECT_TRUE(UpdateTicket::is_status(UpdateTicket::kTimeout));
  EXPECT_TRUE(UpdateTicket::is_status(UpdateTicket::kOverloaded));
  EXPECT_FALSE(UpdateTicket::is_status(1));
  EXPECT_STREQ(UpdateTicket::status_name(UpdateTicket::kRejected), "rejected");
  EXPECT_STREQ(UpdateTicket::status_name(UpdateTicket::kRetryable),
               "retryable");
  EXPECT_STREQ(UpdateTicket::status_name(UpdateTicket::kTimeout), "timeout");
  EXPECT_STREQ(UpdateTicket::status_name(UpdateTicket::kOverloaded),
               "overloaded");
  EXPECT_STREQ(UpdateTicket::status_name(7), "version");
}

TEST(Tickets, RetryLoopGivesUpNonDefinitivelyOnSustainedOverload) {
  ServiceConfig config;
  config.start_paused = true;
  config.max_queue_depth = 1;
  ShardRouter router(gen::path(8), config);
  (void)router.submit(GraphUpdate::insert_edge(0, 2));  // fills the queue
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.ack_timeout = std::chrono::milliseconds(5);
  policy.initial_backoff = std::chrono::microseconds(10);
  const SubmitOutcome out =
      submit_with_retry(router, GraphUpdate::insert_edge(0, 3), policy);
  EXPECT_EQ(out.result, UpdateTicket::kOverloaded);
  EXPECT_FALSE(out.definitive());
  EXPECT_EQ(out.attempts, 3);
  router.resume();
  router.stop();
}

// ---- failure-domain boundaries ----------------------------------------------

TEST(CheckDeathTest, ReaderSideChecksStillAbort) {
  // Outside a writer/watchdog scope PARDFS_CHECK keeps its historical
  // fail-stop behavior: corruption on the read path must never be served.
  EXPECT_DEATH(PARDFS_CHECK_MSG(false, "reader-side probe"), "check failed");
}

TEST(Check, WriterScopedChecksThrowInsteadOfAborting) {
  EXPECT_FALSE(recoverable_checks());
  {
    const ScopedRecoverableChecks scope;
    EXPECT_TRUE(recoverable_checks());
    EXPECT_THROW(PARDFS_CHECK_MSG(false, "writer-side probe"),
                 InvariantViolation);
  }
  EXPECT_FALSE(recoverable_checks());
}

// stop() racing in-flight cross-shard merges must drain, ack everything, and
// join — never deadlock. (A hang here fails via the ctest timeout.)
TEST(Lifecycle, StopDuringInFlightMergesDrainsWithoutDeadlock) {
  for (int round = 0; round < 12; ++round) {
    ShardRouter router(disjoint_paths(4, 4), supervised_config(4));
    std::vector<UpdateTicket> tickets;
    std::mutex tickets_mu;
    std::atomic<bool> quit{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        Rng rng(static_cast<std::uint64_t>(round * 2 + p + 1));
        while (!quit.load(std::memory_order_acquire)) {
          // Cross-component edges: every accept runs the merge protocol.
          const Vertex u = static_cast<Vertex>(rng.below(16));
          const Vertex v = static_cast<Vertex>(rng.below(16));
          UpdateTicket t;
          if (u != v && router.try_submit(GraphUpdate::insert_edge(u, v), &t)) {
            std::lock_guard lock(tickets_mu);
            tickets.push_back(t);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 3));
    router.stop();  // races the producers and any merge mid-protocol
    quit.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();
    for (const UpdateTicket& t : tickets) {
      (void)t.wait();  // total: applied, rejected, or retryable — never stuck
    }
  }
}

// ---- the chaos substrate itself ---------------------------------------------

TEST(ChaosPlan, RandomPlansAreDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::random(42, 6, 32);
  const FaultPlan b = FaultPlan::random(42, 6, 32);
  ASSERT_EQ(a.specs.size(), 6u);
  ASSERT_EQ(b.specs.size(), 6u);
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].point, b.specs[i].point);
    EXPECT_EQ(a.specs[i].shard, b.specs[i].shard);
    EXPECT_EQ(a.specs[i].at_hit, b.specs[i].at_hit);
    EXPECT_EQ(a.specs[i].param, b.specs[i].param);
  }
  const FaultPlan c = FaultPlan::random(43, 6, 32);
  bool differs = false;
  for (std::size_t i = 0; i < c.specs.size(); ++i) {
    differs = differs || c.specs[i].point != a.specs[i].point ||
              c.specs[i].shard != a.specs[i].shard ||
              c.specs[i].at_hit != a.specs[i].at_hit;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosPlan, PointNamesAreStable) {
  EXPECT_STREQ(chaos::point_name(FaultPoint::kWriterCrashMidBatch),
               "writer_crash_mid_batch");
  EXPECT_STREQ(chaos::point_name(FaultPoint::kBatchStallMs), "batch_stall_ms");
  EXPECT_STREQ(chaos::point_name(FaultPoint::kMergeAbort), "merge_abort");
  EXPECT_STREQ(chaos::point_name(FaultPoint::kQueueFull), "queue_full");
  EXPECT_STREQ(chaos::point_name(FaultPoint::kIndexRebuildThrow),
               "index_rebuild_throw");
}

#if defined(PARDFS_ENABLE_CHAOS)

// Compiled in: an armed plan actually fires, exactly once per spec, at the
// scheduled consultation, and disarm() silences everything.
TEST(ChaosHooks, ArmedPlanFiresOnceAtTheScheduledHit) {
  FaultPlan plan;
  plan.specs.push_back(FaultSpec{FaultPoint::kQueueFull, /*shard=*/0,
                                 /*at_hit=*/1, /*param=*/0});
  chaos::arm(plan);
  EXPECT_TRUE(chaos::armed());
  EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 0).kind,
            chaos::FaultAction::Kind::kNone);  // consultation 0: skipped
  EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 1).kind,
            chaos::FaultAction::Kind::kNone);  // wrong shard: no match
  EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 0).kind,
            chaos::FaultAction::Kind::kShed);  // consultation 1: fires
  EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 0).kind,
            chaos::FaultAction::Kind::kNone);  // one-shot
  EXPECT_EQ(chaos::faults_injected(), 1u);
  chaos::disarm();
  EXPECT_FALSE(chaos::armed());
  EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 0).kind,
            chaos::FaultAction::Kind::kNone);
}

// Compiled in + a chaos-enabled router: a merge_abort mid-protocol recovers
// the involved shards, acks the op kRetryable, and the retried op lands on a
// state byte-identical to an un-faulted single-shard run of the same ops.
TEST(ChaosHooks, MergeAbortRecoversAndRetrySucceeds) {
  FaultPlan plan;
  plan.specs.push_back(
      FaultSpec{FaultPoint::kMergeAbort, /*shard=*/-1, /*at_hit=*/0, 0});
  chaos::arm(plan);
  ServiceConfig config = supervised_config(2);
  config.enable_chaos = true;
  ShardRouter router(disjoint_paths(2, 4), config);
  ShardRouter reference(disjoint_paths(2, 4), supervised_config(1));

  const GraphUpdate merge = GraphUpdate::insert_edge(1, 6);  // cross-shard
  const SubmitOutcome out = submit_with_retry(router, merge);
  ASSERT_TRUE(out.applied());
  EXPECT_GT(out.attempts, 1);  // the first attempt died in the merge
  EXPECT_EQ(chaos::faults_injected(), 1u);
  EXPECT_GE(router.stats().recoveries, 1u);
  EXPECT_GE(router.stats().retryable_acks, 1u);

  ASSERT_FALSE(UpdateTicket::is_status(reference.apply_sync(merge)));
  EXPECT_EQ(router.assemble_parent(), reference.assemble_parent());
  EXPECT_EQ(router.assemble_alive(), reference.assemble_alive());
  chaos::disarm();
  router.stop();
  reference.stop();
}

// Compiled in, journal off: a merge_abort leaves nothing to replay, so the
// inline recovery fails and both involved shards degrade to reads-only. The
// merge acks kRetryable, reads keep serving each shard's last published
// snapshot, later writes to either shard resolve kRetryable (the failed
// replay poisoned both writers), and stop() still returns.
TEST(ChaosHooks, MergeAbortWithoutJournalDegradesBothShards) {
  FaultPlan plan;
  plan.specs.push_back(
      FaultSpec{FaultPoint::kMergeAbort, /*shard=*/-1, /*at_hit=*/0, 0});
  chaos::arm(plan);
  ServiceConfig config = supervised_config(2);
  config.enable_chaos = true;
  config.enable_journal = false;
  ShardRouter router(disjoint_paths(2, 4), config);
  const Vertex root0 = router.view().root_of(1);
  const Vertex root1 = router.view().root_of(6);

  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(1, 6)),
            UpdateTicket::kRetryable);
  EXPECT_EQ(chaos::faults_injected(), 1u);
  EXPECT_EQ(router.view().root_of(1), root0);
  EXPECT_EQ(router.view().root_of(6), root1);
  EXPECT_FALSE(router.view().same_component(1, 6));

  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(0, 2)),
            UpdateTicket::kRetryable);
  EXPECT_EQ(router.apply_sync(GraphUpdate::insert_edge(4, 6)),
            UpdateTicket::kRetryable);
  chaos::disarm();
  router.stop();
  EXPECT_EQ(router.stats().recoveries, 0u);
  EXPECT_EQ(router.stats().retryable_acks, 3u);
}

// Regression: a writer crash between the WAL record and the (previously
// post-apply) global id advance must not let another shard hand out the
// journaled insert's id. Ids are reserved at the WAL point, so the insert
// that lands on the live shard during the recovery window and the replayed
// crashed insert get distinct ids.
TEST(ChaosHooks, CrashedInsertKeepsItsReservedIds) {
  FaultPlan plan;
  plan.specs.push_back(FaultSpec{FaultPoint::kWriterCrashMidBatch,
                                 /*shard=*/0, /*at_hit=*/0, /*param=*/0});
  chaos::arm(plan);
  ServiceConfig config = supervised_config(2);
  config.enable_chaos = true;
  config.watchdog_poll_ms = 50;  // hold the recovery window open for the race
  ShardRouter router(disjoint_paths(2, 4), config);

  // Shard 0's writer crashes right after journaling this insert...
  UpdateTicket crashed = router.submit(GraphUpdate::insert_vertex({0}));
  // ...while shard 1 assigns an id during the pre-replay window.
  UpdateTicket live = router.submit(GraphUpdate::insert_vertex({4}));
  ASSERT_FALSE(UpdateTicket::is_status(live.wait()));
  ASSERT_FALSE(UpdateTicket::is_status(crashed.wait()));
  EXPECT_EQ(chaos::faults_injected(), 1u);

  const Vertex replayed_id = crashed.assigned_vertex();
  const Vertex live_id = live.assigned_vertex();
  ASSERT_NE(replayed_id, kNullVertex);
  ASSERT_NE(live_id, kNullVertex);
  EXPECT_NE(replayed_id, live_id) << "duplicate vertex id acked to 2 clients";
  EXPECT_TRUE(router.view().contains(replayed_id));
  EXPECT_TRUE(router.view().contains(live_id));
  EXPECT_EQ(router.shard_of(replayed_id), 0);
  EXPECT_EQ(router.shard_of(live_id), 1);
  chaos::disarm();
  router.stop();  // joins the watchdog: the recovery stat is settled now
  EXPECT_EQ(router.stats().recoveries, 1u);
}

// Compiled in: a batch_stall_ms that outlasts stall_timeout_ms is the one
// fault only the watchdog can see. It fences the stalled writer (counted once
// in pardfs_writer_stalls_total), the stall loop turns the fence into a
// crash, journal replay recovers the shard, and the retried op lands on a
// state byte-identical to an un-faulted single-shard run of the same ops.
TEST(ChaosHooks, StalledWriterIsFencedAndRecovers) {
  FaultPlan plan;
  plan.specs.push_back(FaultSpec{FaultPoint::kBatchStallMs, /*shard=*/-1,
                                 /*at_hit=*/0, /*param=*/1000});
  chaos::arm(plan);
  ServiceConfig config = supervised_config(2);
  config.enable_chaos = true;
  config.stall_timeout_ms = 20;
  config.watchdog_poll_ms = 5;
  obs::Counter& stalls =
      obs::Registry::global().counter("pardfs_writer_stalls_total");
  const std::uint64_t stalls_before = stalls.value();
  ShardRouter router(disjoint_paths(4, 4), config);
  ShardRouter reference(disjoint_paths(4, 4), supervised_config(1));
  ToggleStream stream(disjoint_paths(4, 4), 11);

  for (int i = 0; i < 24; ++i) {
    const GraphUpdate u = stream.next();
    const SubmitOutcome out = submit_with_retry(router, u);
    ASSERT_TRUE(out.applied())
        << "update " << i << " unresolved (result "
        << UpdateTicket::status_name(out.result) << ")";
    UpdateTicket rt = reference.submit(u);
    ASSERT_FALSE(UpdateTicket::is_status(rt.wait()));
    if (u.kind == GraphUpdate::Kind::kInsertVertex) {
      ASSERT_EQ(out.assigned_vertex, rt.assigned_vertex());
    }
  }
  EXPECT_EQ(chaos::faults_injected(), 1u);
  EXPECT_EQ(router.assemble_parent(), reference.assemble_parent());
  EXPECT_EQ(router.assemble_alive(), reference.assemble_alive());
  chaos::disarm();
  router.stop();  // joins the watchdog: stall and recovery counts settle
  reference.stop();
#if defined(PARDFS_NO_METRICS)
  EXPECT_EQ(stalls.value(), stalls_before);
#else
  EXPECT_EQ(stalls.value() - stalls_before, 1u);
#endif
  EXPECT_GE(router.stats().recoveries, 1u);
}

#else  // !PARDFS_ENABLE_CHAOS

// Compiled out: arming is inert, hooks answer kNone, nothing ever fires —
// production binaries cannot be made to inject faults.
TEST(ChaosHooks, CompiledOutHooksAreInert) {
  chaos::arm(FaultPlan::random(1, 16, 1));  // every spec due immediately
  EXPECT_FALSE(chaos::armed());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chaos::hit(FaultPoint::kQueueFull, 0).kind,
              chaos::FaultAction::Kind::kNone);
    EXPECT_EQ(chaos::hit(FaultPoint::kWriterCrashMidBatch, 0).kind,
              chaos::FaultAction::Kind::kNone);
  }
  EXPECT_EQ(chaos::faults_injected(), 0u);

  // A chaos-enabled router behaves exactly like a plain one.
  ServiceConfig config = supervised_config(2);
  config.enable_chaos = true;
  ShardRouter router(disjoint_paths(2, 4), config);
  ToggleStream stream(disjoint_paths(2, 4), 5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(UpdateTicket::is_status(router.apply_sync(stream.next())));
  }
  EXPECT_EQ(router.stats().recoveries, 0u);
  EXPECT_EQ(router.stats().overload_sheds, 0u);
  EXPECT_EQ(router.stats().retryable_acks, 0u);
  chaos::disarm();
  router.stop();
}

#endif  // PARDFS_ENABLE_CHAOS

}  // namespace
}  // namespace pardfs::service
