#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service/workload.hpp"
#include "util/random.hpp"

namespace perfbench {

using pardfs::Graph;
using pardfs::GraphUpdate;
using pardfs::Rng;
using pardfs::Vertex;
using pardfs::service::Scenario;
using pardfs::service::WorkloadDriver;
using pardfs::service::WorkloadSpec;

namespace {

constexpr Vertex kShardedN = 1 << 16;
constexpr Vertex kBlock = 256;
// sharded_reads: every kCrossPeriod-th update inserts a cross-block edge, and
// the update half a period later deletes a live one, so every stream of a
// given length runs the same number of merges.
constexpr std::size_t kCrossPeriod = 1000;

// Timed updates per requested second, summed over the replays (one stream
// each): a fixed constant per workload, so the work depends only on the
// arguments, never on the host.
struct Sizing {
  std::size_t per_second;
  std::size_t warmup;
  int reps;  // at most; see kMinReplayAcks
};

// Each replay gets at least this many timed updates when the run has them,
// so its own ack p99 has ten samples beyond it.
constexpr std::size_t kMinReplayAcks = 1000;

Sizing sizing(const std::string& name) {
  if (name == "social_churn") return {100, 16, 9};
  if (name == "sharded_reads") return {8000, 256, 13};
  if (name == "map_churn") return {440, 16, 11};
  throw std::invalid_argument("unknown workload: " + name);
}

// Driver-generated stream (social_churn, map_churn): WorkloadDriver only
// emits updates feasible against its mirror.
Stream driver_stream(Scenario scenario, Vertex n, std::uint64_t seed, std::size_t total) {
  WorkloadDriver driver(WorkloadSpec{scenario, n, seed});
  Stream st;
  st.initial = driver.graph();
  st.updates.reserve(total);
  for (std::size_t i = 0; i < total; ++i) st.updates.push_back(driver.next());
  st.barrier.assign(total, 0);
  st.final_graph = driver.graph();
  return st;
}

// 256-vertex blocks, each a ring plus random chords (the shape of
// bench_service's sharded graph); the blocks are the components the router
// spreads round-robin over its shards.
Graph block_graph(Rng& rng) {
  Graph g(kShardedN);
  for (Vertex base = 0; base + kBlock <= kShardedN; base += kBlock) {
    for (Vertex i = 0; i < kBlock; ++i) g.add_edge(base + i, base + (i + 1) % kBlock);
    for (Vertex c = 0; c < kBlock / 8; ++c) {
      const Vertex u = base + static_cast<Vertex>(rng.below(kBlock));
      const Vertex v = base + static_cast<Vertex>(rng.below(kBlock));
      if (u != v) g.add_edge(u, v);
    }
  }
  return g;
}

bool is_ring_edge(Vertex u, Vertex v) {
  const Vertex a = u % kBlock, b = v % kBlock;
  return (a + 1) % kBlock == b || (b + 1) % kBlock == a;
}

// sharded_reads stream, checked against a mirror: intra-block chord flips
// (never a ring edge, so blocks stay connected) plus a fixed share of
// cross-block inserts — the merge path — and later deletes of them.
Stream sharded_stream(std::uint64_t seed, std::size_t total) {
  Stream st;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51);
  st.initial = block_graph(rng);
  Graph mirror = st.initial;
  std::vector<std::pair<Vertex, Vertex>> cross;  // live cross-block edges
  const std::uint64_t blocks = kShardedN / kBlock;
  st.updates.reserve(total);
  st.barrier.reserve(total);
  while (st.updates.size() < total) {
    const std::size_t phase = st.updates.size() % kCrossPeriod;
    if (phase == 0) {
      const Vertex bx = static_cast<Vertex>(rng.below(blocks));
      Vertex by = static_cast<Vertex>(rng.below(blocks - 1));
      if (by >= bx) ++by;
      const Vertex u = bx * kBlock + static_cast<Vertex>(rng.below(kBlock));
      const Vertex v = by * kBlock + static_cast<Vertex>(rng.below(kBlock));
      if (mirror.has_edge(u, v)) continue;
      mirror.add_edge(u, v);
      cross.emplace_back(u, v);
      st.updates.push_back(GraphUpdate::insert_edge(u, v));
      st.barrier.push_back(1);
      continue;
    }
    if (phase == kCrossPeriod / 2 && !cross.empty()) {
      const std::size_t k = static_cast<std::size_t>(rng.below(cross.size()));
      const auto [u, v] = cross[k];
      cross[k] = cross.back();
      cross.pop_back();
      mirror.remove_edge(u, v);
      st.updates.push_back(GraphUpdate::delete_edge(u, v));
      st.barrier.push_back(0);
      continue;
    }
    const Vertex base = static_cast<Vertex>(rng.below(blocks)) * kBlock;
    const Vertex u = base + static_cast<Vertex>(rng.below(kBlock));
    const Vertex v = base + static_cast<Vertex>(rng.below(kBlock));
    if (u == v || is_ring_edge(u, v)) continue;
    if (mirror.has_edge(u, v)) {
      mirror.remove_edge(u, v);
      st.updates.push_back(GraphUpdate::delete_edge(u, v));
    } else {
      mirror.add_edge(u, v);
      st.updates.push_back(GraphUpdate::insert_edge(u, v));
    }
    st.barrier.push_back(0);
  }
  st.final_graph = std::move(mirror);
  return st;
}

}  // namespace

bool is_workload(const std::string& name) {
  return std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames), name) !=
         std::end(kWorkloadNames);
}

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds) {
  const Sizing s = sizing(name);
  Workload w;
  w.name = name;
  w.warmup = s.warmup;
  const std::size_t timed = s.per_second * static_cast<std::size_t>(std::max(seconds, 1));
  const std::size_t reps =
      std::clamp<std::size_t>(timed / kMinReplayAcks, 1, static_cast<std::size_t>(s.reps));
  w.stream_length = s.warmup + timed / reps;
  Rng seeds(seed);
  for (std::size_t r = 0; r < reps; ++r) w.stream_seeds.push_back(seeds());
  if (name == "sharded_reads") {
    w.config.num_shards = 4;
  } else {
    w.config.serve_cuts = name == "map_churn";
  }
  return w;
}

Stream make_stream(const Workload& w, std::size_t rep) {
  const std::uint64_t seed = w.stream_seeds[rep];
  if (w.name == "social_churn") {
    return driver_stream(Scenario::kSocialMix, 1 << 15, seed, w.stream_length);
  }
  if (w.name == "sharded_reads") return sharded_stream(seed, w.stream_length);
  return driver_stream(Scenario::kDynamicMap, 1 << 14, seed, w.stream_length);
}

}  // namespace perfbench
