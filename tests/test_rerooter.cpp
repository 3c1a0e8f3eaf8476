// Rerooting engine correctness: rerooting any subtree at any new root must
// produce a valid DFS tree of the induced subgraph, for both strategies and
// across adversarial families. Round counts must reflect the paper's bound
// (polylog for the paper strategy; the sequential baseline degenerates).
#include "core/rerooter.hpp"

#include <gtest/gtest.h>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "graph/generators.hpp"
#include "tree/tree_index.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

struct RerootFixture {
  Graph g;
  std::vector<Vertex> parent;
  TreeIndex index;
  AdjacencyOracle oracle;

  explicit RerootFixture(Graph graph) : g(std::move(graph)) {
    parent = static_dfs(g);
    index.build(parent);
    oracle.build(g, index);
  }

  RerootStats reroot_whole_tree(Vertex new_root, RerootStrategy strategy,
                                std::vector<Vertex>& out) {
    const OracleView view(&oracle, &index, /*identity=*/true);
    Rerooter engine(index, g, view, strategy);
    out = parent;
    const RerootRequest req{index.root_of(new_root), new_root, kNullVertex};
    const RerootRequest reqs[] = {req};
    return engine.run(reqs, out);
  }
};

void expect_valid_reroot(Graph g, Vertex new_root, RerootStrategy strategy) {
  RerootFixture f(std::move(g));
  std::vector<Vertex> result;
  f.reroot_whole_tree(new_root, strategy, result);
  EXPECT_EQ(result[static_cast<std::size_t>(new_root)], kNullVertex)
      << "new root must be a root";
  const auto validation = validate_dfs_forest(f.g, result);
  EXPECT_TRUE(validation.ok) << "root " << new_root << ": " << validation.reason;
}

class RerootEveryVertex
    : public ::testing::TestWithParam<std::tuple<int, RerootStrategy>> {};

TEST_P(RerootEveryVertex, FamilySweep) {
  const auto [family, strategy] = GetParam();
  Rng rng(1234 + family);
  Graph g = [&]() -> Graph {
    switch (family) {
      case 0: return gen::path(40);
      case 1: return gen::cycle(40);
      case 2: return gen::star(40);
      case 3: return gen::broom(40, 10);
      case 4: return gen::binary_tree(40);
      case 5: return gen::grid(6, 7);
      case 6: return gen::hairy_path(8, 4);
      case 7: return gen::clique(12);
      case 8: return gen::random_connected(40, 60, rng);
      default: return gen::random_connected(40, 20, rng);
    }
  }();
  for (Vertex r = 0; r < g.num_vertices(); ++r) {
    expect_valid_reroot(g, r, strategy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, RerootEveryVertex,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(RerootStrategy::kPaper,
                                         RerootStrategy::kSequentialL)),
    [](const ::testing::TestParamInfo<std::tuple<int, RerootStrategy>>& info) {
      return "family" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == RerootStrategy::kPaper ? "_paper"
                                                                : "_seql");
    });

TEST(Rerooter, RandomGraphsRandomRoots) {
  Rng rng(555);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = static_cast<Vertex>(5 + rng.below(200));
    const std::int64_t extra = static_cast<std::int64_t>(rng.below(4 * n));
    Graph g = gen::random_connected(n, extra, rng);
    const Vertex r = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    expect_valid_reroot(std::move(g), r, RerootStrategy::kPaper);
  }
}

TEST(Rerooter, SubtreeRerootLeavesRestIntact) {
  // Reroot only a hanging subtree; vertices outside it must keep parents.
  Rng rng(77);
  Graph g = gen::random_connected(120, 150, rng);
  RerootFixture f(std::move(g));
  // Find a mid-size subtree.
  Vertex sub = kNullVertex;
  for (Vertex v = 0; v < 120; ++v) {
    if (f.index.size(v) >= 10 && f.index.size(v) <= 60) {
      sub = v;
      break;
    }
  }
  ASSERT_NE(sub, kNullVertex);
  const auto span = f.index.subtree_span(sub);
  const Vertex new_root = span[span.size() / 2];
  std::vector<Vertex> result = f.parent;
  const OracleView view(&f.oracle, &f.index, true);
  Rerooter engine(f.index, f.g, view, RerootStrategy::kPaper);
  const Vertex old_parent = f.parent[static_cast<std::size_t>(sub)];
  const RerootRequest reqs[] = {{sub, new_root, old_parent}};
  engine.run(reqs, result);
  for (Vertex v = 0; v < 120; ++v) {
    if (!f.index.is_ancestor(sub, v)) {
      EXPECT_EQ(result[static_cast<std::size_t>(v)],
                f.parent[static_cast<std::size_t>(v)])
          << "outside vertex " << v << " must be untouched";
    }
  }
  EXPECT_EQ(result[static_cast<std::size_t>(new_root)], old_parent);
  // The overall forest must still be a DFS forest (the attach edge
  // (old_parent, new_root) does not exist in the graph, so validate the
  // subtree's induced subgraph instead: simulate by detaching).
  result[static_cast<std::size_t>(new_root)] = kNullVertex;
  Graph induced(f.g.capacity());
  for (const Edge& e : f.g.edges()) {
    if (f.index.is_ancestor(sub, e.u) == f.index.is_ancestor(sub, e.v)) {
      induced.add_edge(e.u, e.v);
    }
  }
  const auto validation = validate_dfs_forest(induced, result);
  EXPECT_TRUE(validation.ok) << validation.reason;
}

TEST(Rerooter, MultipleIndependentReroots) {
  // Star of paths: reroot several sibling subtrees in one run. Each path's
  // far end is also adjacent to the center (so the attach edges exist).
  Graph g(16);
  // center 0; three paths 1-2-3-4, 5-6-7-8, 9-10-11-12; extras 13,14,15
  for (const Vertex first : {1, 5, 9}) {
    g.add_edge(0, first);
    for (Vertex v = first; v < first + 3; ++v) g.add_edge(v, v + 1);
    g.add_edge(0, first + 3);  // back edge the reroot attaches through
  }
  g.add_edge(0, 13);
  g.add_edge(13, 14);
  g.add_edge(14, 15);
  RerootFixture f(std::move(g));
  std::vector<Vertex> result = f.parent;
  const OracleView view(&f.oracle, &f.index, true);
  Rerooter engine(f.index, f.g, view, RerootStrategy::kPaper);
  const RerootRequest reqs[] = {{1, 4, 0}, {5, 8, 0}, {9, 12, 0}};
  const RerootStats stats = engine.run(reqs, result);
  EXPECT_EQ(result[4], 0);
  EXPECT_EQ(result[8], 0);
  EXPECT_EQ(result[12], 0);
  EXPECT_EQ(result[3], 4);
  EXPECT_EQ(result[2], 3);
  EXPECT_EQ(result[1], 2);
  EXPECT_GT(stats.components_processed, 0u);
  const auto validation = validate_dfs_forest(f.g, result);
  EXPECT_TRUE(validation.ok) << validation.reason;
}

TEST(Rerooter, PaperStrategyBeatsSequentialOnBroom) {
  // Broom: handle 0-1-...-h-1, then bristle paths hanging off the head.
  // Rerooting at the far end of one bristle forces the sequential strategy
  // into Θ(#bristles) rounds while the paper strategy stays polylog.
  const Vertex n = 2048;
  Graph g = gen::broom(n, 8);
  RerootFixture f(std::move(g));
  std::vector<Vertex> out_paper, out_seq;
  const RerootStats paper =
      f.reroot_whole_tree(n - 1, RerootStrategy::kPaper, out_paper);
  const RerootStats seq =
      f.reroot_whole_tree(n - 1, RerootStrategy::kSequentialL, out_seq);
  EXPECT_TRUE(validate_dfs_forest(f.g, out_paper).ok);
  EXPECT_TRUE(validate_dfs_forest(f.g, out_seq).ok);
  EXPECT_LE(paper.global_rounds, 64u) << "polylog rounds expected";
  EXPECT_GE(seq.components_processed, 1u);
}

TEST(Rerooter, PaperStrategySeparatesFromSequentialOnPathMiddle) {
  // The worst case for [6]-style rerooting: a path rerooted at its middle
  // peels one vertex per dependent round (Θ(n)); the paper's machinery
  // halves structures every O(1) rounds (polylog).
  const Vertex n = 2048;
  Graph g = gen::path(n);
  RerootFixture f(std::move(g));
  std::vector<Vertex> out_paper, out_seq;
  const RerootStats paper =
      f.reroot_whole_tree(n / 2, RerootStrategy::kPaper, out_paper);
  const RerootStats seq =
      f.reroot_whole_tree(n / 2, RerootStrategy::kSequentialL, out_seq);
  EXPECT_TRUE(validate_dfs_forest(f.g, out_paper).ok);
  EXPECT_TRUE(validate_dfs_forest(f.g, out_seq).ok);
  EXPECT_LE(paper.global_rounds, 64u);
  EXPECT_GE(seq.global_rounds, static_cast<std::uint64_t>(n) / 4);
}

TEST(Rerooter, RoundsArePolylogOnDeepPath) {
  const Vertex n = 4096;
  Graph g = gen::path(n);
  RerootFixture f(std::move(g));
  std::vector<Vertex> out;
  const RerootStats stats =
      f.reroot_whole_tree(n / 2, RerootStrategy::kPaper, out);
  EXPECT_TRUE(validate_dfs_forest(f.g, out).ok);
  EXPECT_LE(stats.global_rounds, 64u);
  EXPECT_LE(stats.max_phase, 13u);
}

}  // namespace
}  // namespace pardfs
