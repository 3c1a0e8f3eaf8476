// Experiment E15 (DESIGN.md §10): the D probe hot path under SIMD dispatch.
//
// BM_OracleProbe answers the same pre-generated (sources, segment) query
// cases three ways:
//   * single_scalar — one query_vertex per source, dispatch pinned scalar:
//     the pre-PR reference shape (per-probe binary searches);
//   * batch_scalar  — query_vertex_batch, dispatch pinned scalar: isolates
//     the batching/layout win from vectorization;
//   * batch_simd    — query_vertex_batch under the runtime dispatch
//     decision: adds the AVX2 gather kernel where the CPU has it.
// The probe row of bench/gates.py asserts batch_simd >= 1.3x single_scalar
// at n = 2^15 (per-probe wall time); the `avx2` counter on batch_simd lets
// it skip the assertion on hardware without AVX2.
//
// BM_BuildOracleReuse pins the aligned-CSR build: steady-state rebuilds
// must stay allocation-free (capacity_stable) and land on 32-byte
// boundaries (aligned) now that the arrays come from the aligned allocator.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

using namespace pardfs;

namespace {

enum class ProbeMode { kSingleScalar, kBatchScalar, kBatchSimd };

struct ProbeCase {
  Graph g;
  std::vector<Vertex> parent;
  TreeIndex index;
  AdjacencyOracle oracle;
  std::vector<PathSeg> segs;
  std::vector<Vertex> sources;
};

// Dense-ish random graph (deg ~16) so the probe binary searches have real
// depth, segments rooted high in the deep DFS tree so most sources are
// probe-up eligible (the hot shape of a reroot round's query batches).
ProbeCase make_case(Vertex n) {
  ProbeCase c;
  Rng rng(7);
  c.g = gen::random_connected(n, 32 * static_cast<std::int64_t>(n), rng);
  c.parent = static_dfs(c.g);
  c.index.build(c.parent);
  Vertex deepest = 0;
  for (Vertex v = 1; v < n; ++v) {
    if (c.index.depth(v) > c.index.depth(deepest)) deepest = v;
  }
  for (int s = 0; s < 8; ++s) {
    Vertex bottom = deepest;
    for (int up = 0; up < 4 * s && c.index.parent(bottom) != kNullVertex; ++up) {
      bottom = c.index.parent(bottom);
    }
    Vertex top = bottom;
    while (c.index.depth(top) > 2) top = c.index.parent(top);
    c.segs.push_back({top, bottom});
  }
  // Every vertex once, shuffled: each bench iteration probes a fresh
  // window of sources, so the CSR rows are cold the way a reroot round's
  // query batches see them (a fixed small source set would turn the whole
  // working set L2-resident and measure nothing but ALU).
  for (Vertex v = 0; v < n; ++v) c.sources.push_back(v);
  for (std::size_t i = c.sources.size(); i > 1; --i) {
    std::swap(c.sources[i - 1], c.sources[rng.below(i)]);
  }
  c.oracle.build(c.g, c.index);
  return c;
}

void BM_OracleProbe(benchmark::State& state, ProbeMode mode) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  constexpr std::size_t kWindow = 512;
  ProbeCase c = make_case(n);
  const bool prev_forced = simd::scalar_forced();
  simd::set_force_scalar(mode != ProbeMode::kBatchSimd);
  std::vector<std::optional<Edge>> out(kWindow);
  std::size_t offset = 0;
  std::size_t seg_idx = 0;
  for (auto _ : state) {
    const Vertex* sources = c.sources.data() + offset;
    const PathSeg seg = c.segs[seg_idx];
    if (mode == ProbeMode::kSingleScalar) {
      for (std::size_t i = 0; i < kWindow; ++i) {
        out[i] = c.oracle.query_vertex(sources[i], seg, PathEnd::kTop);
      }
    } else {
      c.oracle.query_vertex_batch(sources, kWindow, seg, PathEnd::kTop,
                                  out.data());
    }
    benchmark::DoNotOptimize(out.data());
    offset += kWindow;
    if (offset + kWindow > c.sources.size()) {
      offset = 0;
      seg_idx = (seg_idx + 1) % c.segs.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
  state.counters["n"] = benchmark::Counter(n);
  state.counters["avx2"] = benchmark::Counter(
      simd::active_level() == simd::Level::kAvx2 ? 1 : 0);
  simd::set_force_scalar(prev_forced);
}
BENCHMARK_CAPTURE(BM_OracleProbe, single_scalar, ProbeMode::kSingleScalar)
    ->RangeMultiplier(2)->Range(1 << 12, 1 << 17)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OracleProbe, batch_scalar, ProbeMode::kBatchScalar)
    ->RangeMultiplier(2)->Range(1 << 12, 1 << 17)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_OracleProbe, batch_simd, ProbeMode::kBatchSimd)
    ->RangeMultiplier(2)->Range(1 << 12, 1 << 17)->Unit(benchmark::kMicrosecond);

void BM_BuildOracleReuse(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  Graph g = gen::random_connected(n, 8 * static_cast<std::int64_t>(n), rng);
  const auto parent = static_dfs(g);
  TreeIndex index;
  index.build(parent);
  AdjacencyOracle oracle;
  oracle.build(g, index);
  oracle.build(g, index);  // reach the steady state before measuring
  const std::size_t stable = oracle.heap_capacity_bytes();
  bool capacity_stable = true;
  bool aligned = true;
  for (auto _ : state) {
    oracle.build(g, index);
    benchmark::DoNotOptimize(oracle);
    capacity_stable &= oracle.heap_capacity_bytes() == stable;
    aligned &= oracle.csr_aligned();
  }
  state.counters["n"] = benchmark::Counter(n);
  state.counters["heap_bytes"] = benchmark::Counter(static_cast<double>(stable));
  state.counters["capacity_stable"] = benchmark::Counter(capacity_stable ? 1 : 0);
  state.counters["aligned"] = benchmark::Counter(aligned ? 1 : 0);
}
BENCHMARK(BM_BuildOracleReuse)
    ->RangeMultiplier(4)->Range(1 << 12, 1 << 16)->Unit(benchmark::kMicrosecond);

}  // namespace
