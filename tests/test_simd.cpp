// The scalar≡SIMD contract (DESIGN.md §10): the dispatched kernels, the
// batched oracle probes built on them, and the branch-free LCA must be
// byte-identical to the pinned scalar reference — results AND cost-model
// accounting. Every differential below runs the same workload under
// simd::set_force_scalar(true) and under the default dispatch decision and
// compares; on hardware without AVX2 both passes resolve to the scalar
// body, so the comparisons degenerate to self-equality and still pin the
// scalar path's determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "pram/cost_model.hpp"
#include "testing/fuzz.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace pardfs {
namespace {

struct ScopedForceScalar {
  bool prev;
  explicit ScopedForceScalar(bool on) : prev(simd::scalar_forced()) {
    simd::set_force_scalar(on);
  }
  ~ScopedForceScalar() { simd::set_force_scalar(prev); }
};

TEST(Simd, ForceScalarPinsDispatch) {
  {
    ScopedForceScalar pin(true);
    EXPECT_TRUE(simd::scalar_forced());
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  // Restored: forced iff the environment pinned it before the test ran.
  EXPECT_EQ(simd::active_level() == simd::Level::kScalar,
            simd::scalar_forced() || simd::active_level() != simd::Level::kAvx2);
}

TEST(Simd, AlignedVectorData) {
  simd::aligned_vector<std::int32_t> v;
  for (const std::size_t size : {1u, 7u, 8u, 31u, 32u, 1000u}) {
    v.resize(size);
    EXPECT_TRUE(simd::is_aligned(v.data())) << "size " << size;
  }
  simd::aligned_vector<std::uint8_t> bytes(333);
  EXPECT_TRUE(simd::is_aligned(bytes.data()));
}

// The kernel against std::lower_bound over every dispatch mode, covering
// empty/singleton subranges, needles below/inside/above the range, and
// lane counts off the 8-lane boundary (tail path).
TEST(Simd, LowerBoundBatchMatchesStdLowerBound) {
  Rng rng(11);
  simd::aligned_vector<std::int32_t> keys;
  std::vector<std::uint32_t> starts, lens;
  std::vector<std::int32_t> needles;
  // A few hundred sorted subranges of one shared key array.
  for (int range = 0; range < 300; ++range) {
    const std::uint32_t len = static_cast<std::uint32_t>(rng.below(64));
    const std::uint32_t start = static_cast<std::uint32_t>(keys.size());
    std::int32_t cur = static_cast<std::int32_t>(rng.below(50));
    for (std::uint32_t i = 0; i < len; ++i) {
      cur += static_cast<std::int32_t>(rng.below(5));  // sorted, with dups
      keys.push_back(cur);
    }
    for (int probe = 0; probe < 3; ++probe) {
      starts.push_back(start);
      lens.push_back(len);
      needles.push_back(static_cast<std::int32_t>(rng.below(400)));
    }
    // Exact boundary needles: first key, last key, one past the last.
    if (len > 0) {
      for (const std::int32_t needle :
           {keys[start], keys[start + len - 1], keys[start + len - 1] + 1}) {
        starts.push_back(start);
        lens.push_back(len);
        needles.push_back(needle);
      }
    }
  }
  std::vector<std::uint32_t> expect(needles.size());
  for (std::size_t i = 0; i < needles.size(); ++i) {
    const std::int32_t* base = keys.data() + starts[i];
    expect[i] = static_cast<std::uint32_t>(
        std::lower_bound(base, base + lens[i], needles[i]) - base);
  }
  for (const bool force : {true, false}) {
    ScopedForceScalar pin(force);
    // Lane counts exercising full blocks and the scalar tail.
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, needles.size()}) {
      std::vector<std::uint32_t> out(count, 0xDEADBEEFu);
      simd::lower_bound_batch(keys.data(), starts.data(), lens.data(),
                              needles.data(), out.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], expect[i])
            << "mode=" << simd::level_name(simd::active_level()) << " lane " << i;
      }
    }
  }
}

// ---- oracle differential ---------------------------------------------------

struct OracleCase {
  Graph g;
  std::vector<Vertex> parent;
  TreeIndex idx;
  AdjacencyOracle oracle;
  pram::CostModel cost;
  std::vector<PathSeg> segs;
  std::vector<Vertex> sources;
};

// One family instance with Theorem-9 patches applied (extras, deletions, a
// dead vertex) so every probe flavor fires, plus sampled segments/sources.
void make_case(OracleCase& c, Graph g, std::uint64_t seed) {
  c.g = std::move(g);
  c.parent = static_dfs(c.g);
  c.idx.build(c.parent);
  c.oracle.build(c.g, c.idx, &c.cost);
  Rng rng(seed);
  const Vertex n = c.g.capacity();
  // Patches: a few deleted and re-inserted edges, a few fresh extras, one
  // dead vertex.
  for (int i = 0; i < 6; ++i) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const auto nbrs = c.g.neighbors(u);
    if (!c.g.is_alive(u) || nbrs.empty()) continue;
    c.oracle.note_edge_deleted(u, nbrs.front());
  }
  for (int i = 0; i < 6; ++i) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v || !c.g.is_alive(u) || !c.g.is_alive(v) || c.g.has_edge(u, v)) continue;
    c.oracle.note_edge_inserted(u, v);
  }
  for (Vertex v = 0; v < n; ++v) {
    if (c.g.is_alive(v) && c.g.degree(v) > 0) {
      const auto nbrs = c.g.neighbors(v);
      c.oracle.note_vertex_deleted(v, {nbrs.begin(), nbrs.end()});
      break;
    }
  }
  // Segments: walk up a random number of steps from a random bottom.
  for (int i = 0; i < 40; ++i) {
    Vertex bottom = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (!c.idx.in_forest(bottom)) continue;
    Vertex top = bottom;
    const int steps = static_cast<int>(rng.below(12));
    for (int s = 0; s < steps && c.idx.parent(top) != kNullVertex; ++s) {
      top = c.idx.parent(top);
    }
    c.segs.push_back({top, bottom});
  }
  for (int i = 0; i < 64; ++i) {
    c.sources.push_back(static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n))));
  }
}

struct ProbeTrace {
  std::vector<std::optional<Edge>> singles;
  std::vector<std::optional<Edge>> batched;
  std::vector<std::optional<Edge>> reduced;
  pram::CostSnapshot cost;
};

ProbeTrace run_probes(OracleCase& c) {
  c.cost.reset();
  ProbeTrace t;
  for (const PathSeg seg : c.segs) {
    for (const PathEnd end : {PathEnd::kTop, PathEnd::kBottom}) {
      for (const Vertex u : c.sources) {
        t.singles.push_back(c.oracle.query_vertex(u, seg, end));
      }
      std::vector<std::optional<Edge>> out(c.sources.size());
      c.oracle.query_vertex_batch(c.sources.data(), c.sources.size(), seg, end,
                                  out.data());
      t.batched.insert(t.batched.end(), out.begin(), out.end());
      t.reduced.push_back(c.oracle.query_sources(c.sources, seg, end));
    }
  }
  t.cost = c.cost.snapshot();
  return t;
}

void expect_equal(const ProbeTrace& a, const ProbeTrace& b, const char* label) {
  ASSERT_EQ(a.singles.size(), b.singles.size()) << label;
  for (std::size_t i = 0; i < a.singles.size(); ++i) {
    ASSERT_EQ(a.singles[i], b.singles[i]) << label << " single " << i;
    ASSERT_EQ(a.batched[i], b.batched[i]) << label << " batched " << i;
  }
  ASSERT_EQ(a.reduced, b.reduced) << label;
  // The probe ledger too: lanes must charge exactly the scalar path's cost.
  EXPECT_EQ(a.cost.queries, b.cost.queries) << label;
  EXPECT_EQ(a.cost.query_probes, b.cost.query_probes) << label;
}

TEST(Simd, OracleProbesAgreeAcrossDispatchOnGraphFamilies) {
  Rng rng(21);
  for (int fam = 0; fam < 3; ++fam) {
    OracleCase c;
    switch (fam) {
      case 0: make_case(c, gen::random_connected(600, 2400, rng), 100 + fam); break;
      case 1: make_case(c, gen::barabasi_albert(600, 4, rng), 100 + fam); break;
      default: make_case(c, gen::grid(24, 25), 100 + fam); break;
    }
    EXPECT_TRUE(c.oracle.csr_aligned());
    ProbeTrace scalar_trace, simd_trace;
    {
      ScopedForceScalar pin(true);
      scalar_trace = run_probes(c);
    }
    {
      ScopedForceScalar pin(false);
      simd_trace = run_probes(c);
    }
    // Within one mode, the batched entry points must equal the singles too.
    ASSERT_EQ(scalar_trace.singles, scalar_trace.batched);
    expect_equal(scalar_trace, simd_trace, fam == 0   ? "random"
                                           : fam == 1 ? "power_law"
                                                      : "grid");
  }
}

// The branch-free LCA lookup against a parent-walk reference, on shapes
// whose sizes are not multiples of the table's 32-entry blocks: random trees,
// a path (values rising strictly along pre order), a star (flat), a broom,
// and forests with dead ids. Pairs are random, placed by pre position in one
// block, in adjacent blocks and in far blocks, and every pair of a 61-id
// forest.
TEST(Simd, BranchFreeLcaMatchesParentWalk) {
  Rng rng(31);
  for (int fam = 0; fam < 8; ++fam) {
    Graph g = fam == 0   ? gen::random_connected(800, 2000, rng)
              : fam == 1 ? gen::barabasi_albert(800, 3, rng)
              : fam == 2 ? gen::grid(28, 28)
              : fam == 3 ? gen::path(1000)
              : fam == 4 ? gen::star(1000)
              : fam == 5 ? gen::broom(1000, 300)
              : fam == 6 ? gen::gnm(900, 800, rng)
                         : gen::gnm(61, 50, rng);
    const Vertex n = g.capacity();
    if (fam >= 6) {
      for (int d = 0; d < (fam == 6 ? 60 : 6); ++d) {
        const auto v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
        if (g.is_alive(v)) g.remove_vertex(v);
      }
    }
    const std::vector<Vertex> parent = static_dfs(g);
    TreeIndex idx;
    idx.build(parent, g.alive());
    auto brute_lca = [&](Vertex u, Vertex v) {
      while (u != v) {
        if (idx.depth(u) >= idx.depth(v)) {
          u = parent[static_cast<std::size_t>(u)];
        } else {
          v = parent[static_cast<std::size_t>(v)];
        }
      }
      return u;
    };
    auto check = [&](Vertex u, Vertex v) {
      if (!idx.in_forest(u) || !idx.in_forest(v)) return;
      if (idx.root_of(u) != idx.root_of(v)) return;
      ASSERT_EQ(idx.lca(u, v), brute_lca(u, v))
          << "fam=" << fam << " u=" << u << " v=" << v;
      ASSERT_EQ(idx.lca(u, u), u);
    };
    for (int t = 0; t < 500; ++t) {
      check(static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n))),
            static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n))));
    }
    const std::int32_t k = idx.num_indexed();
    auto check_pre = [&](std::int32_t i, std::int32_t j) {
      check(idx.vertex_at_pre(i), idx.vertex_at_pre(j));
    };
    for (std::int32_t i = 0; i < k; ++i) {
      if (k <= 64) {
        for (std::int32_t j = 0; j < k; ++j) check_pre(i, j);
        continue;
      }
      for (const std::int32_t delta : {1, 5, 31, 32, 40, 64, 97, 500, k - 1 - i}) {
        if (i + delta < k) check_pre(i, i + delta);
      }
    }
  }
}

// Full-engine lockstep: the same update stream replayed under forced scalar
// and under the default dispatch must yield identical parent arrays after
// every batch (the engine determinism contract extended to dispatch).
TEST(Simd, DynamicDfsParentsAgreeAcrossDispatch) {
  Rng gen_rng(41);
  Graph initial = gen::random_connected(300, 900, gen_rng);
  // Deterministic update batches, replayed identically in both passes.
  auto make_batches = [] {
    Rng rng(43);
    std::vector<std::vector<GraphUpdate>> batches;
    Graph mirror = [] {
      Rng r(41);
      return gen::random_connected(300, 900, r);
    }();
    for (int b = 0; b < 20; ++b) {
      std::vector<GraphUpdate> batch;
      const int k = 1 + static_cast<int>(rng.below(5));
      for (int i = 0; i < k; ++i) {
        const Vertex u = static_cast<Vertex>(rng.below(300));
        const Vertex v = static_cast<Vertex>(rng.below(300));
        if (u == v || !mirror.is_alive(u) || !mirror.is_alive(v)) continue;
        if (mirror.has_edge(u, v)) {
          // Keep connectivity-ish: only delete non-tree-critical at random;
          // deletions that disconnect are legal (forest maintenance).
          mirror.remove_edge(u, v);
          batch.push_back(GraphUpdate::delete_edge(u, v));
        } else {
          mirror.add_edge(u, v);
          batch.push_back(GraphUpdate::insert_edge(u, v));
        }
      }
      if (!batch.empty()) batches.push_back(std::move(batch));
    }
    return batches;
  };
  const auto batches = make_batches();
  auto run = [&](bool force) {
    ScopedForceScalar pin(force);
    DynamicDfs dfs(initial);
    std::vector<std::vector<Vertex>> parents;
    for (const auto& batch : batches) {
      dfs.apply_batch(batch);
      parents.emplace_back(dfs.parent().begin(), dfs.parent().end());
    }
    return parents;
  };
  const auto scalar_parents = run(true);
  const auto simd_parents = run(false);
  ASSERT_EQ(scalar_parents.size(), simd_parents.size());
  for (std::size_t b = 0; b < scalar_parents.size(); ++b) {
    ASSERT_EQ(scalar_parents[b], simd_parents[b]) << "batch " << b;
  }
}

// The fuzz harness's own families under both modes: same verdict, same
// counters, and the replay line records the mode the run executed under.
TEST(Simd, FuzzFamiliesAgreeAcrossDispatch) {
  using testing::FuzzFamily;
  for (const FuzzFamily family :
       {FuzzFamily::kRandom, FuzzFamily::kPowerLaw, FuzzFamily::kGrid}) {
    testing::FuzzOptions o;
    o.seed = 77;
    o.family = family;
    o.n = 64;
    o.batches = 10;
    o.force_scalar = true;
    const testing::FuzzResult scalar_run = testing::run_fuzz(o);
    ASSERT_TRUE(scalar_run.ok) << scalar_run.failure << "\n" << scalar_run.replay;
    o.force_scalar = false;
    const testing::FuzzResult simd_run = testing::run_fuzz(o);
    ASSERT_TRUE(simd_run.ok) << simd_run.failure << "\n" << simd_run.replay;
    EXPECT_EQ(scalar_run.batches, simd_run.batches);
    EXPECT_EQ(scalar_run.updates, simd_run.updates);
    EXPECT_EQ(scalar_run.queries, simd_run.queries);
  }
  testing::FuzzOptions o;
  o.force_scalar = true;
  EXPECT_NE(testing::replay_line(o).find("--force-scalar"), std::string::npos);
}

}  // namespace
}  // namespace pardfs
