// DynamicDfs::apply_batch — the combined k-update reduction (Theorem 13's
// batch handling): validity after every batch, equivalence with the
// sequential per-update path at the graph level, and the amortization pins
// (one index rebuild per segment, zero for pure back-edge batches).
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/static_dfs.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

GraphUpdate to_graph_update(const gen::Update& u) {
  switch (u.kind) {
    case gen::UpdateKind::kInsertEdge:
      return GraphUpdate::insert_edge(u.u, u.v);
    case gen::UpdateKind::kDeleteEdge:
      return GraphUpdate::delete_edge(u.u, u.v);
    case gen::UpdateKind::kInsertVertex:
      return GraphUpdate::insert_vertex(u.neighbors);
    case gen::UpdateKind::kDeleteVertex:
      return GraphUpdate::delete_vertex(u.u);
  }
  return GraphUpdate::insert_edge(u.u, u.v);
}

// A feasible mixed update stream, pre-generated against a mirror graph.
std::vector<GraphUpdate> make_stream(const Graph& initial, int count,
                                     std::uint64_t seed, double ins_v = 0.2,
                                     double del_v = 0.2) {
  Graph mirror = initial;
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    gen::Update u;
    if (!gen::random_update(mirror, rng, 1.0, 1.0, ins_v, del_v, u)) break;
    gen::apply_update(mirror, u);
    out.push_back(to_graph_update(u));
  }
  return out;
}

TEST(Batch, SingleIndexRebuildForStructuralEdgeBatch) {
  Rng rng(101);
  Graph g = gen::random_connected(256, 700, rng);
  DynamicDfs dfs(std::move(g));
  const std::size_t base_rebuilds = dfs.epoch_rebuilds();
  const std::size_t index_rebuilds = dfs.index_rebuilds();

  // k tree-edge deletions (always structural), k <= epoch period.
  std::vector<GraphUpdate> batch;
  Graph mirror = dfs.graph();
  std::vector<Vertex> parent(dfs.parent().begin(), dfs.parent().end());
  for (Vertex v = 0; v < dfs.graph().capacity() &&
                     batch.size() < std::min<std::size_t>(dfs.epoch_period(), 6);
       ++v) {
    const Vertex p = parent[static_cast<std::size_t>(v)];
    if (p == kNullVertex) continue;
    batch.push_back(GraphUpdate::delete_edge(p, v));
    mirror.remove_edge(p, v);
  }
  ASSERT_GE(batch.size(), 2u);

  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.updates, batch.size());
  EXPECT_EQ(stats.structural, batch.size());
  EXPECT_EQ(stats.segments, 1u) << "one combined pass for the whole batch";
  EXPECT_EQ(stats.index_rebuilds, 1u) << "exactly one O(n) index rebuild";
  EXPECT_EQ(dfs.index_rebuilds(), index_rebuilds + 1);
  EXPECT_EQ(dfs.epoch_rebuilds(), base_rebuilds) << "no epoch close forced";
  EXPECT_EQ(dfs.graph().num_edges(), mirror.num_edges());
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  EXPECT_TRUE(val.ok) << val.reason;
}

TEST(Batch, PureBackEdgeBatchRebuildsNothing) {
  // On a path graph every (a, b) with a < b is an ancestor pair.
  DynamicDfs dfs(gen::path(64));
  const std::size_t index_rebuilds = dfs.index_rebuilds();
  const std::size_t base_rebuilds = dfs.epoch_rebuilds();
  const std::vector<Vertex> before(dfs.parent().begin(), dfs.parent().end());
  std::vector<GraphUpdate> batch;
  for (Vertex i = 0; i < 8; ++i) {
    batch.push_back(GraphUpdate::insert_edge(i, static_cast<Vertex>(40 + i)));
  }
  const BatchStats stats = dfs.apply_batch(batch);
  EXPECT_EQ(stats.back_edges, batch.size());
  EXPECT_EQ(stats.structural, 0u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.index_rebuilds, 0u);
  EXPECT_EQ(dfs.index_rebuilds(), index_rebuilds);
  EXPECT_EQ(dfs.epoch_rebuilds(), base_rebuilds);
  EXPECT_EQ(before, std::vector<Vertex>(dfs.parent().begin(), dfs.parent().end()));
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Batch, MixedStreamValidAfterEveryBatch) {
  for (const std::size_t batch_size : {2u, 3u, 5u, 8u, 16u}) {
    Rng rng(2026 + batch_size);
    Graph g = gen::random_connected(150, 450, rng);
    const std::vector<GraphUpdate> stream =
        make_stream(g, 240, 77 * batch_size);
    DynamicDfs dfs(std::move(g));
    for (std::size_t i = 0; i < stream.size(); i += batch_size) {
      const std::size_t len = std::min(batch_size, stream.size() - i);
      dfs.apply_batch(std::span(stream).subspan(i, len));
      const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
      ASSERT_TRUE(val.ok) << "batch_size " << batch_size << " at update " << i
                          << ": " << val.reason;
    }
  }
}

TEST(Batch, MatchesSequentialGraphState) {
  Rng rng(404);
  Graph g = gen::random_connected(100, 260, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 160, 505);
  DynamicDfs batched(g);
  DynamicDfs sequential(g);
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    const std::size_t len = std::min<std::size_t>(7, stream.size() - i);
    const auto chunk = std::span(stream).subspan(i, len);
    batched.apply_batch(chunk);
    for (const GraphUpdate& u : chunk) sequential.apply(u);
    ASSERT_EQ(batched.graph().num_vertices(), sequential.graph().num_vertices());
    ASSERT_EQ(batched.graph().num_edges(), sequential.graph().num_edges());
    // Both forests are valid DFS forests of the same graph (they may differ:
    // a DFS forest is not unique).
    ASSERT_TRUE(validate_dfs_forest(batched.graph(), batched.parent()).ok);
    ASSERT_TRUE(validate_dfs_forest(sequential.graph(), sequential.parent()).ok);
  }
}

TEST(Batch, VertexInsertsSegmentTheBatch) {
  DynamicDfs dfs(gen::path(10));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(3, 4));
  batch.push_back(GraphUpdate::delete_edge(6, 7));
  batch.push_back(GraphUpdate::insert_vertex({2, 8}));
  batch.push_back(GraphUpdate::insert_vertex({}));
  const BatchStats stats = dfs.apply_batch(batch);
  ASSERT_EQ(stats.new_vertices.size(), 2u);
  EXPECT_EQ(stats.new_vertices[0], 10);
  EXPECT_EQ(stats.new_vertices[1], 11);
  EXPECT_TRUE(dfs.graph().has_edge(10, 2));
  EXPECT_TRUE(dfs.graph().has_edge(10, 8));
  EXPECT_EQ(dfs.parent_of(11), kNullVertex);
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Batch, EdgeToFreshVertexInSameBatch) {
  // An edge update may reference the id a vertex insert earlier in the same
  // batch assigned (ids are deterministic: capacity order).
  DynamicDfs dfs(gen::path(6));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::insert_vertex({0}));  // id 6
  batch.push_back(GraphUpdate::insert_edge(6, 3));
  batch.push_back(GraphUpdate::insert_edge(6, 5));
  const BatchStats stats = dfs.apply_batch(batch);
  ASSERT_EQ(stats.new_vertices.size(), 1u);
  EXPECT_EQ(stats.new_vertices[0], 6);
  EXPECT_TRUE(dfs.graph().has_edge(6, 3));
  EXPECT_TRUE(dfs.graph().has_edge(6, 5));
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

TEST(Batch, CrossTreeMergeAndSplitInOneBatch) {
  // Two components; one batch deletes a bridge inside the first and inserts
  // a merging edge to the second.
  Graph g(8);
  for (Vertex i = 0; i + 1 < 4; ++i) g.add_edge(i, i + 1);      // 0-1-2-3
  for (Vertex i = 4; i + 1 < 8; ++i) g.add_edge(i, i + 1);      // 4-5-6-7
  g.add_edge(0, 2);                                             // extra cycle edge
  DynamicDfs dfs(std::move(g));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(2, 3));  // splits the tail
  batch.push_back(GraphUpdate::insert_edge(1, 5));  // merges the two trees
  batch.push_back(GraphUpdate::insert_edge(3, 6));  // reattaches the tail
  dfs.apply_batch(batch);
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(5));
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(3));
}

TEST(Batch, DeleteThenReinsertSameTreeEdge) {
  DynamicDfs dfs(gen::path(12));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(5, 6));
  batch.push_back(GraphUpdate::insert_edge(5, 6));
  batch.push_back(GraphUpdate::delete_edge(8, 9));
  dfs.apply_batch(batch);
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  EXPECT_TRUE(dfs.graph().has_edge(5, 6));
  EXPECT_EQ(dfs.root_of(0), dfs.root_of(6));
  EXPECT_NE(dfs.root_of(0), dfs.root_of(9));
}

TEST(Batch, AdversarialStarChurn) {
  // Star center deletions force Theta(n)-subtree reroots; batches must stay
  // valid while whole levels of leaves re-attach.
  const Vertex n = 64;
  Graph g = gen::star(n);
  for (Vertex i = 1; i + 1 < n; ++i) g.add_edge(i, i + 1);  // leaf ring
  DynamicDfs dfs(std::move(g));
  for (int round = 0; round < 6; ++round) {
    std::vector<GraphUpdate> batch;
    for (Vertex i = 1; i <= 5; ++i) {
      const Vertex leaf = static_cast<Vertex>((round * 5 + i) % (n - 1) + 1);
      if (dfs.graph().has_edge(0, leaf)) {
        batch.push_back(GraphUpdate::delete_edge(0, leaf));
      } else {
        batch.push_back(GraphUpdate::insert_edge(0, leaf));
      }
    }
    dfs.apply_batch(batch);
    const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
    ASSERT_TRUE(val.ok) << "round " << round << ": " << val.reason;
  }
}

TEST(Batch, ManyBatchesCrossEpochBoundaries) {
  Rng rng(9090);
  Graph g = gen::random_connected(128, 380, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 300, 42);
  DynamicDfs dfs(std::move(g));
  const std::size_t rebuilds0 = dfs.epoch_rebuilds();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < stream.size(); i += 6) {
    const std::size_t len = std::min<std::size_t>(6, stream.size() - i);
    dfs.apply_batch(std::span(stream).subspan(i, len));
    applied += len;
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
  EXPECT_GT(dfs.epoch_rebuilds(), rebuilds0) << "epochs must still roll over";
  EXPECT_LT(dfs.epoch_rebuilds() - rebuilds0, applied / 2)
      << "rebuilds stay amortized under batching";
}

TEST(Batch, SequentialStrategyHandlesBatchesToo) {
  Rng rng(31337);
  Graph g = gen::random_connected(80, 200, rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 120, 8);
  DynamicDfs dfs(std::move(g), RerootStrategy::kSequentialL);
  for (std::size_t i = 0; i < stream.size(); i += 5) {
    const std::size_t len = std::min<std::size_t>(5, stream.size() - i);
    dfs.apply_batch(std::span(stream).subspan(i, len));
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
}

TEST(Batch, DrainWholeGraphInBatches) {
  Rng rng(555);
  Graph g = gen::random_connected(40, 90, rng);
  DynamicDfs dfs(std::move(g));
  while (dfs.graph().num_edges() > 0) {
    const auto edges = dfs.graph().edges();
    std::vector<GraphUpdate> batch;
    for (std::size_t i = 0; i < edges.size() && batch.size() < 4; ++i) {
      batch.push_back(GraphUpdate::delete_edge(edges[i].u, edges[i].v));
    }
    dfs.apply_batch(batch);
    ASSERT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
  }
  std::vector<GraphUpdate> kill;
  for (Vertex v = 0; v < 40; ++v) {
    if (dfs.graph().is_alive(v)) kill.push_back(GraphUpdate::delete_vertex(v));
  }
  dfs.apply_batch(kill);
  EXPECT_EQ(dfs.graph().num_vertices(), 0);
}

// ---- the work cap (Component::recompute, DESIGN.md §9) ---------------------

// Tree-edge deletions whose child subtrees each hold more than half of the
// graph, spread over the root path: each predicts over half the component's
// vertex count, so `k` of them put the batch over the work cap for any
// kRecomputeWorkRatio up to k / 2.
std::vector<GraphUpdate> heavy_cuts(const DynamicDfs& dfs, std::size_t k) {
  const TreeIndex& t = dfs.tree();
  std::vector<Vertex> heavy;
  for (Vertex v = 0; v < t.capacity(); ++v) {
    if (dfs.parent_of(v) != kNullVertex && 2 * t.size(v) > dfs.graph().num_vertices()) {
      heavy.push_back(v);
    }
  }
  std::sort(heavy.begin(), heavy.end(),
            [&](Vertex a, Vertex b) { return t.depth(a) < t.depth(b); });
  std::vector<GraphUpdate> out;
  const std::size_t stride = std::max<std::size_t>(1, heavy.size() / k);
  for (std::size_t i = 0; i < heavy.size() && out.size() < k; i += stride) {
    out.push_back(GraphUpdate::delete_edge(dfs.parent_of(heavy[i]), heavy[i]));
  }
  return out;
}

// The static-DFS differential: a fresh static recompute induces the same
// component partition as the maintained forest.
void expect_same_components_as_static(const DynamicDfs& dfs) {
  const std::vector<Vertex> ref = static_dfs(dfs.graph());
  const auto root = [](std::span<const Vertex> parent, Vertex v) {
    while (parent[static_cast<std::size_t>(v)] != kNullVertex) {
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  std::vector<Vertex> to_ref(ref.size(), kNullVertex);
  std::vector<Vertex> to_dyn(ref.size(), kNullVertex);
  for (Vertex v = 0; v < dfs.graph().capacity(); ++v) {
    if (!dfs.graph().is_alive(v)) continue;
    const Vertex a = root(dfs.parent(), v);
    const Vertex b = root(ref, v);
    Vertex& fwd = to_ref[static_cast<std::size_t>(a)];
    Vertex& bwd = to_dyn[static_cast<std::size_t>(b)];
    if (fwd == kNullVertex) fwd = b;
    if (bwd == kNullVertex) bwd = a;
    ASSERT_EQ(fwd, b) << "component of " << v << " differs from static_dfs";
    ASSERT_EQ(bwd, a) << "component of " << v << " differs from static_dfs";
  }
}

TEST(Batch, BatchOverTheWorkCapIsRecomputed) {
  DynamicDfs dfs(gen::grid(32, 32));
  const std::vector<GraphUpdate> batch = heavy_cuts(dfs, 8);
  ASSERT_EQ(batch.size(), 8u);
  ASSERT_LE(batch.size(), dfs.epoch_period()) << "one segment";
  const std::uint64_t before =
      obs::Registry::global().counter("pardfs_update_recompute_total").value();
  const BatchStats bs = dfs.apply_batch(batch);
  EXPECT_EQ(bs.segments, 1u);
  EXPECT_GT(dfs.last_stats().recomputes, 0u);
  // The capped component is finished in round 1, with no query batch.
  EXPECT_EQ(dfs.last_stats().global_rounds, 1u);
  EXPECT_EQ(dfs.last_stats().query_batches, 0u);
#if !defined(PARDFS_NO_METRICS)
  EXPECT_EQ(obs::Registry::global().counter("pardfs_update_recompute_total").value(),
            before + dfs.last_stats().recomputes);
#else
  (void)before;
#endif
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  expect_same_components_as_static(dfs);
}

// serial_cutoff = 0 (DistributedDfs's setting) turns the cap off. The same
// large dynamic_map batches, which the default engine recomputes, then run
// the reduction's chains, grouping and rounds end to end, and both engines
// must pass the validation oracle and the static-DFS differential.
TEST(Batch, UncappedEngineRunsTheRoundsOnBatchesTheCapTakes) {
  const service::WorkloadSpec spec{service::Scenario::kDynamicMap, 1024, 11};
  const Graph g = service::make_initial_graph(spec);
  DynamicDfs capped(g);
  DynamicDfs uncapped(g, RerootStrategy::kPaper, nullptr, 0, /*serial_cutoff=*/0);
  service::WorkloadDriver driver(spec);
  std::uint64_t recomputed = 0;
  std::uint64_t uncapped_rounds = 0;
  std::vector<GraphUpdate> batch;
  for (int b = 0; b < 24; ++b) {
    batch.clear();
    for (int i = 0; i < 16; ++i) batch.push_back(driver.next());
    capped.apply_batch(batch);
    uncapped.apply_batch(batch);
    recomputed += capped.last_stats().recomputes;
    ASSERT_EQ(uncapped.last_stats().recomputes, 0u) << "batch " << b;
    uncapped_rounds = std::max(uncapped_rounds, uncapped.last_stats().global_rounds);
    for (const DynamicDfs* dfs : {&capped, &uncapped}) {
      const auto val = validate_dfs_forest(dfs->graph(), dfs->parent());
      ASSERT_TRUE(val.ok) << "batch " << b << ": " << val.reason;
      expect_same_components_as_static(*dfs);
    }
  }
  EXPECT_GT(recomputed, 0u) << "the default engine never took the cap";
  EXPECT_GT(uncapped_rounds, 1u) << "the uncapped engine never ran a second round";
}

// BM_DynamicUpdate's stream (bench_update: random_connected(2^15, 3n) with
// seed 17, 64 updates of seed 1234) replayed through the per-update path:
// that path never builds batch components, so the cap never fires and the
// `update` gate keeps measuring the paper's machinery.
TEST(Batch, PerUpdatePathNeverRecomputes) {
  Rng rng(17);
  const Vertex n = 1 << 15;
  Graph g = gen::random_connected(n, 3 * static_cast<std::int64_t>(n), rng);
  const std::vector<GraphUpdate> stream = make_stream(g, 64, 1234, 0.1, 0.1);
  ASSERT_EQ(stream.size(), 64u);
  DynamicDfs dfs(std::move(g));
  const std::uint64_t before =
      obs::Registry::global().counter("pardfs_update_recompute_total").value();
  for (const GraphUpdate& u : stream) {
    dfs.apply(u);
    ASSERT_EQ(dfs.last_stats().recomputes, 0u);
  }
  EXPECT_EQ(obs::Registry::global().counter("pardfs_update_recompute_total").value(),
            before);
}

// ---- vertex inserts inside a segment (DESIGN.md §9) ------------------------

// A batch that fits one epoch ran as one combined pass with one index
// rebuild, and the forest it left passes the validation oracle and the
// static-DFS differential.
void expect_one_pass(const DynamicDfs& dfs, const BatchStats& bs) {
  EXPECT_EQ(bs.segments, 1u);
  EXPECT_EQ(bs.index_rebuilds, 1u);
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << val.reason;
  expect_same_components_as_static(dfs);
}

TEST(Batch, LaterOpsReachTheNewVertexInTheSameSegment) {
  DynamicDfs dfs(gen::grid(8, 8));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(dfs.parent_of(20), 20));
  batch.push_back(GraphUpdate::insert_vertex({3, 60}));  // id 64
  batch.push_back(GraphUpdate::insert_edge(64, 35));
  batch.push_back(GraphUpdate::delete_edge(64, 3));
  batch.push_back(GraphUpdate::insert_vertex({64, 7}));  // id 65, edge to 64
  batch.push_back(GraphUpdate::insert_edge(65, 50));
  ASSERT_LE(batch.size(), dfs.epoch_period());
  const BatchStats bs = dfs.apply_batch(batch);
  ASSERT_EQ(bs.new_vertices, (std::vector<Vertex>{64, 65}));
  EXPECT_EQ(bs.structural, 5u) << "the delete of a new vertex's edge patches only";
  EXPECT_GT(dfs.last_stats().recomputes, 0u);
  EXPECT_FALSE(dfs.graph().has_edge(64, 3));
  EXPECT_TRUE(dfs.graph().has_edge(64, 65));
  EXPECT_EQ(dfs.root_of(64), dfs.root_of(0));
  expect_one_pass(dfs, bs);
}

TEST(Batch, NewVertexDeletedLaterInTheSameSegment) {
  DynamicDfs dfs(gen::grid(8, 8));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::insert_vertex({0, 63}));  // id 64
  batch.push_back(GraphUpdate::insert_edge(64, 27));
  batch.push_back(GraphUpdate::delete_edge(dfs.parent_of(40), 40));
  batch.push_back(GraphUpdate::delete_vertex(64));
  const BatchStats bs = dfs.apply_batch(batch);
  ASSERT_EQ(bs.new_vertices, (std::vector<Vertex>{64}));
  EXPECT_FALSE(dfs.graph().is_alive(64));
  EXPECT_EQ(dfs.parent_of(64), kNullVertex);
  EXPECT_EQ(dfs.graph().capacity(), 65);
  expect_one_pass(dfs, bs);
}

TEST(Batch, NewVertexWithoutEdgesAtSegmentEndIsARoot) {
  DynamicDfs dfs(gen::grid(6, 6));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::insert_vertex({}));    // id 36: no edge at all
  batch.push_back(GraphUpdate::insert_vertex({14}));  // id 37
  batch.push_back(GraphUpdate::delete_edge(dfs.parent_of(8), 8));
  batch.push_back(GraphUpdate::delete_edge(37, 14));  // 37's last edge dies
  const BatchStats bs = dfs.apply_batch(batch);
  ASSERT_EQ(bs.new_vertices, (std::vector<Vertex>{36, 37}));
  EXPECT_EQ(dfs.parent_of(36), kNullVertex);
  EXPECT_EQ(dfs.parent_of(37), kNullVertex);
  EXPECT_TRUE(dfs.tree().children(36).empty());
  EXPECT_TRUE(dfs.tree().children(37).empty());
  expect_one_pass(dfs, bs);
}

// New vertices whose edges all lead to each other form a region with no
// pre-batch tree in it: the finish roots it at the smallest new id.
TEST(Batch, NewVerticesJoinedOnlyToEachOther) {
  DynamicDfs dfs(gen::grid(6, 6));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::insert_vertex({}));    // id 36
  batch.push_back(GraphUpdate::insert_vertex({36}));  // id 37
  batch.push_back(GraphUpdate::insert_vertex({37, 5}));  // id 38
  batch.push_back(GraphUpdate::delete_edge(38, 5));
  batch.push_back(GraphUpdate::delete_edge(dfs.parent_of(20), 20));
  const BatchStats bs = dfs.apply_batch(batch);
  ASSERT_EQ(bs.new_vertices, (std::vector<Vertex>{36, 37, 38}));
  EXPECT_EQ(dfs.parent_of(36), kNullVertex);
  EXPECT_EQ(dfs.parent_of(37), 36);
  EXPECT_EQ(dfs.parent_of(38), 37);
  expect_one_pass(dfs, bs);
}

TEST(Batch, NewVertexBridgesTwoComponents) {
  Graph g = gen::grid(5, 5);                         // ids 0..24
  for (Vertex i = 0; i < 9; ++i) g.add_vertex();     // ids 25..33
  for (Vertex i = 25; i + 1 < 34; ++i) g.add_edge(i, i + 1);  // a path
  DynamicDfs dfs(std::move(g));
  ASSERT_NE(dfs.root_of(12), dfs.root_of(30));
  std::vector<GraphUpdate> batch;
  batch.push_back(GraphUpdate::delete_edge(dfs.parent_of(18), 18));
  batch.push_back(GraphUpdate::insert_vertex({12, 30}));  // id 34
  batch.push_back(GraphUpdate::delete_edge(28, 29));      // splits the path
  const BatchStats bs = dfs.apply_batch(batch);
  ASSERT_EQ(bs.new_vertices, (std::vector<Vertex>{34}));
  EXPECT_EQ(dfs.root_of(12), dfs.root_of(30));
  EXPECT_EQ(dfs.root_of(12), dfs.root_of(34));
  EXPECT_NE(dfs.root_of(12), dfs.root_of(25));
  expect_one_pass(dfs, bs);
}

// Mixed streams with vertex inserts among the structural ops: every batch
// that fits one epoch is one pass, whatever its inserts. The same stream
// through a serial_cutoff = 0 engine keeps the per-update insert path (one
// more rebuild per insert) and must agree on validity and components.
TEST(Batch, InsertMixedStreamsRunOnePassPerEpochSizedBatch) {
  const service::WorkloadSpec spec{service::Scenario::kDynamicMap, 1024, 23};
  Rng rng(77);
  const Graph random = gen::random_connected(200, 500, rng);
  const std::vector<std::pair<Graph, std::vector<GraphUpdate>>> streams = {
      {random, make_stream(random, 240, 91, 0.4, 0.2)},
      {service::make_initial_graph(spec), [&] {
         service::WorkloadDriver driver(spec);
         std::vector<GraphUpdate> out;
         for (int i = 0; i < 240; ++i) out.push_back(driver.next());
         return out;
       }()}};
  for (const auto& [initial, stream] : streams) {
    DynamicDfs capped(initial);
    DynamicDfs uncapped(initial, RerootStrategy::kPaper, nullptr, 0,
                        /*serial_cutoff=*/0);
    std::size_t insert_batches = 0;
    std::size_t uncapped_extra_rebuilds = 0;
    for (std::size_t i = 0; i < stream.size(); i += 6) {
      const auto chunk =
          std::span(stream).subspan(i, std::min<std::size_t>(6, stream.size() - i));
      const std::size_t period = capped.epoch_period();
      const BatchStats bs = capped.apply_batch(chunk);
      const BatchStats ubs = uncapped.apply_batch(chunk);
      ASSERT_EQ(bs.new_vertices, ubs.new_vertices);
      if (bs.structural > 0 && bs.structural <= period) {
        SCOPED_TRACE("batch at update " + std::to_string(i));
        expect_one_pass(capped, bs);
      }
      if (!bs.new_vertices.empty()) {
        ++insert_batches;
        uncapped_extra_rebuilds += ubs.index_rebuilds - 1;
      }
      for (const DynamicDfs* dfs : {&capped, &uncapped}) {
        const auto val = validate_dfs_forest(dfs->graph(), dfs->parent());
        ASSERT_TRUE(val.ok) << "update " << i << ": " << val.reason;
        expect_same_components_as_static(*dfs);
      }
    }
    EXPECT_GT(insert_batches, 0u) << "no batch carried a vertex insert";
    EXPECT_GT(uncapped_extra_rebuilds, 0u)
        << "the uncapped engine never took the per-update insert path";
  }
}

TEST(Batch, EmptyBatchIsANoop) {
  DynamicDfs dfs(gen::path(5));
  const BatchStats stats = dfs.apply_batch({});
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.index_rebuilds, 0u);
  EXPECT_TRUE(validate_dfs_forest(dfs.graph(), dfs.parent()).ok);
}

}  // namespace
}  // namespace pardfs
