#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "baseline/static_dfs.hpp"
#include "core/adjacency_oracle.hpp"
#include "core/articulation.hpp"
#include "core/dynamic_dfs.hpp"
#include "obs/metrics.hpp"
#include "pram/list_ranking.hpp"
#include "service/journal.hpp"
#include "service/shard_router.hpp"
#include "tree/tree_index.hpp"
#include "util/random.hpp"

namespace perfbench {

using pardfs::Graph;
using pardfs::Vertex;
using pardfs::kNullVertex;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBuildReps = 5;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

template <typename Fn>
double median_us(Fn&& fn) {
  std::vector<double> us;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(us_since(t0));
  }
  return quantile(std::move(us), 0.5);
}

std::uint64_t counter_value(const char* name) {
  return pardfs::obs::Registry::global().counter(name).value();
}

// Probe cost of D, per source: every alive vertex once (shuffled, so CSR
// rows are cold the way a reroot round sees them) against segments hanging
// from the deepest vertex, in 512-source query_vertex_batch calls.
double probe_ns(const pardfs::AdjacencyOracle& oracle, const pardfs::TreeIndex& index,
                const Graph& g, pardfs::Rng& rng) {
  std::vector<Vertex> sources;
  Vertex deepest = kNullVertex;
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (!g.is_alive(v)) continue;
    sources.push_back(v);
    if (deepest == kNullVertex || index.depth(v) > index.depth(deepest)) deepest = v;
  }
  if (sources.empty()) return 0.0;
  for (std::size_t i = sources.size(); i > 1; --i) {
    std::swap(sources[i - 1], sources[rng.below(i)]);
  }
  std::vector<pardfs::PathSeg> segs;
  for (int s = 0; s < 8; ++s) {
    Vertex bottom = deepest;
    for (int up = 0; up < 4 * s && index.parent(bottom) != kNullVertex; ++up) {
      bottom = index.parent(bottom);
    }
    Vertex top = bottom;
    while (index.depth(top) > 2) top = index.parent(top);
    segs.push_back({top, bottom});
  }
  constexpr std::size_t kWindow = 512;
  std::vector<std::optional<pardfs::Edge>> out(kWindow);
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::size_t seg = 0;
    for (std::size_t off = 0; off < sources.size(); off += kWindow) {
      const std::size_t count = std::min(kWindow, sources.size() - off);
      oracle.query_vertex_batch(sources.data() + off, count, segs[seg++ % segs.size()],
                                pardfs::PathEnd::kTop, out.data());
    }
    ns.push_back(us_since(t0) * 1e3 / static_cast<double>(sources.size()));
  }
  return quantile(std::move(ns), 0.5);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::vector<Batch> recover_batches(const Workload& w, const Stream& st, const LiveResult& live) {
  std::vector<Batch> batches;
  std::map<std::pair<std::int32_t, std::uint64_t>, std::size_t> slot;
  for (std::size_t i = 0; i < st.updates.size(); ++i) {
    const bool alone = st.barrier[i] != 0;
    const auto key = std::make_pair(live.shard[i], live.version[i]);
    auto it = alone ? slot.end() : slot.find(key);
    if (it == slot.end()) {
      batches.push_back({{}, live.shard[i], live.version[i], alone, i >= w.warmup});
      if (!alone) it = slot.emplace(key, batches.size() - 1).first;
    }
    batches[alone ? batches.size() - 1 : it->second].ops.push_back(st.updates[i]);
  }
  return batches;
}

namespace {

// One router shard's writer stack, rebuilt outside the router. The journal
// takes its genesis copy before the engine consumes the graph, as the
// router's does.
struct ReplayShard {
  ReplayShard(Graph g, const pardfs::service::ServiceConfig& cfg, const std::string& label)
      : journal(g, {cfg.strategy, cfg.num_threads, label, {}}),
        dfs(std::move(g), cfg.strategy, nullptr, cfg.num_threads, -1, label) {}

  pardfs::service::UpdateJournal journal;
  pardfs::DynamicDfs dfs;
  std::uint64_t version = 1;  // the router publishes version 1 at start
  std::uint64_t applied = 0;
  double busy_s = 0.0;
};

// The router's initial partition, read from a freshly constructed router:
// shard_of(v) for every id (-1 for a dead one).
std::vector<std::int32_t> initial_owner(const Workload& w, const pardfs::Graph& g) {
  const pardfs::service::ShardRouter router(g, w.config);
  std::vector<std::int32_t> owner(static_cast<std::size_t>(g.capacity()));
  for (Vertex v = 0; v < g.capacity(); ++v) owner[static_cast<std::size_t>(v)] = router.shard_of(v);
  return owner;
}

// The graph shard s starts from: the whole initial graph on one shard,
// otherwise the full id space with only s's components alive, rows verbatim.
Graph shard_graph(const Graph& g, const std::vector<std::int32_t>& owner, std::size_t s,
                  std::size_t shards) {
  if (shards == 1) return g;
  Graph out;
  out.pad_to(g.capacity());
  std::vector<Vertex> verts;
  std::vector<std::vector<Vertex>> rows;
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (owner[static_cast<std::size_t>(v)] != static_cast<std::int32_t>(s)) continue;
    verts.push_back(v);
    const auto nb = g.neighbors(v);
    rows.emplace_back(nb.begin(), nb.end());
  }
  out.adopt_component(verts, std::move(rows));
  return out;
}

}  // namespace

ReplayResult replay_batches(const Workload& w, const Stream& st,
                            const std::vector<Batch>& batches) {
  ReplayResult r;
  const auto& cfg = w.config;
  const std::size_t S = std::max<std::size_t>(cfg.num_shards, 1);
  std::vector<std::int32_t> owner = S > 1 ? initial_owner(w, st.initial)
                                          : std::vector<std::int32_t>{};
  std::vector<std::unique_ptr<ReplayShard>> shards;
  for (std::size_t s = 0; s < S; ++s) {
    shards.push_back(std::make_unique<ReplayShard>(shard_graph(st.initial, owner, s, S), cfg,
                                                   S > 1 ? std::to_string(s) : std::string()));
  }
  auto shard_of = [&](Vertex v) {
    return S == 1 ? 0 : owner[static_cast<std::size_t>(v)];
  };
  auto maybe_checkpoint = [&](ReplayShard& sh) {
    if (cfg.journal_checkpoint_entries == 0 ||
        sh.journal.entries() < cfg.journal_checkpoint_entries) {
      return;
    }
    const auto t0 = Clock::now();
    sh.journal.checkpoint(sh.dfs.graph(), sh.dfs.parent(), sh.version, sh.applied);
    r.checkpoint_us.push_back(us_since(t0));
    ++r.policy_checkpoints;
  };

  std::uint64_t rounds0 = 0, traversed0 = 0;
  bool timing = false;
  for (const Batch& b : batches) {
    if (b.timed && !timing) {
      timing = true;
      rounds0 = counter_value("pardfs_reroot_rounds_total");
      traversed0 = counter_value("pardfs_reroot_vertices_traversed_total");
    }
    const pardfs::GraphUpdate& first = b.ops.front();
    if (S > 1 && std::any_of(b.ops.begin(), b.ops.end(), [](const auto& u) {
          return u.kind != pardfs::GraphUpdate::Kind::kInsertEdge &&
                 u.kind != pardfs::GraphUpdate::Kind::kDeleteEdge;
        })) {
      throw std::logic_error("per-shard replay handles edge updates only");
    }
    const std::int32_t su = shard_of(first.u), sv = shard_of(first.v);
    if (std::any_of(b.ops.begin(), b.ops.end(),
                    [&](const auto& u) { return shard_of(u.u) != b.shard; })) {
      // The live router routed this batch elsewhere: the replayed partition
      // has diverged, and nothing after this point would be comparable.
      ++r.route_mismatches;
      break;
    }
    const bool merge = b.alone && su != sv;
    // Normal batches run on their shard; a merge on the gateway's writer,
    // landing on the shard with the larger component (tie: lower id).
    std::int32_t home = su, gateway = su;
    double migrate = 0.0, record = 0.0;
    if (merge) {
      auto size_of = [&](std::int32_t s, Vertex x) {
        const pardfs::DynamicDfs& d = shards[static_cast<std::size_t>(s)]->dfs;
        return d.tree().size(d.root_of(x));
      };
      const auto zu = size_of(su, first.u), zv = size_of(sv, first.v);
      home = zu > zv || (zu == zv && su < sv) ? su : sv;
      gateway = std::min(su, sv);
      const std::int32_t lose = home == su ? sv : su;
      const Vertex leaving = home == su ? first.v : first.u;
      ReplayShard& loser = *shards[static_cast<std::size_t>(lose)];
      ReplayShard& winner = *shards[static_cast<std::size_t>(home)];
      auto t0 = Clock::now();
      pardfs::DynamicDfs::ComponentTransfer t = loser.dfs.extract_component(leaving);
      migrate += us_since(t0);
      t0 = Clock::now();
      loser.journal.record_extract(leaving, loser.version + 1);
      winner.journal.record_adopt(t);
      record += us_since(t0);
      for (const Vertex m : t.vertices) owner[static_cast<std::size_t>(m)] = home;
      t0 = Clock::now();
      winner.dfs.adopt_component(std::move(t));
      migrate += us_since(t0);
      ++loser.version;
    }
    ReplayShard& sh = *shards[static_cast<std::size_t>(home)];
    // The router journals a capacity pad before every batch that inserts a
    // vertex; it is a no-op on the engine when ids are already aligned.
    const bool inserts = std::any_of(b.ops.begin(), b.ops.end(), [](const auto& u) {
      return u.kind == pardfs::GraphUpdate::Kind::kInsertVertex;
    });
    auto t0 = Clock::now();
    if (inserts) sh.journal.record_pad(sh.dfs.graph().capacity());
    sh.journal.record_apply(b.ops, sh.version + 1, sh.applied + b.ops.size());
    record += us_since(t0);
    t0 = Clock::now();
    const pardfs::BatchStats bs = sh.dfs.apply_batch(b.ops);
    const double apply = us_since(t0);
    ++sh.version;
    sh.applied += b.ops.size();
    if (sh.version != b.version) ++r.route_mismatches;
    maybe_checkpoint(sh);
    if (merge) maybe_checkpoint(*shards[static_cast<std::size_t>(home == su ? sv : su)]);
    if (!b.timed) continue;
    r.apply_us.push_back(apply);
    r.record_us.push_back(record);
    shards[static_cast<std::size_t>(gateway)]->busy_s += (apply + migrate) * 1e-6;
    if (merge) {
      r.migrate_s += migrate * 1e-6;
      ++r.migrations;
    }
    ++r.timed_batches;
    r.timed_updates += bs.updates;
    r.structural += bs.structural;
    r.index_rebuilds += bs.index_rebuilds;
    r.base_rebuilds += bs.base_rebuilds;
  }
  r.reroot_rounds = counter_value("pardfs_reroot_rounds_total") - rounds0;
  r.vertices_traversed = counter_value("pardfs_reroot_vertices_traversed_total") - traversed0;
  for (const auto& sh : shards) {
    r.busiest_writer_s = std::max(r.busiest_writer_s, sh->busy_s);
    // One more checkpoint of each shard's final state, so its cost is on
    // the ledger even when a run stays under the checkpoint policy.
    const auto t0 = Clock::now();
    sh->journal.checkpoint(sh->dfs.graph(), sh->dfs.parent(), sh->version, sh->applied);
    r.checkpoint_us.push_back(us_since(t0));
  }
  if (S == 1) {
    r.parent.assign(shards[0]->dfs.parent().begin(), shards[0]->dfs.parent().end());
    return r;
  }
  // Assembled the way ShardRouter::assemble_parent does: each id's entry
  // from the shard that owns it.
  r.parent.assign(static_cast<std::size_t>(st.final_graph.capacity()), kNullVertex);
  for (std::size_t v = 0; v < r.parent.size(); ++v) {
    if (owner[v] < 0) continue;
    const auto par = shards[static_cast<std::size_t>(owner[v])]->dfs.parent();
    if (v < par.size()) r.parent[v] = par[v];
  }
  return r;
}

BuildTimes time_builds(const Graph& g, std::span<const Vertex> parent, std::uint64_t seed) {
  BuildTimes t;
  pardfs::Rng rng(seed);
  pardfs::TreeIndex index;
  t.index_build_serial_us =
      median_us([&] { index.build(parent, g.alive(), pardfs::TreeBuildMode::kSerial); });
  t.index_build_us =
      median_us([&] { index.build(parent, g.alive(), pardfs::TreeBuildMode::kAuto); });
  t.index_heap_mb = static_cast<double>(index.heap_capacity_bytes()) / (1024.0 * 1024.0);

  pardfs::AdjacencyOracle oracle;
  t.oracle_build_us = median_us([&] { oracle.build(g, index); });
  t.oracle_heap_mb = static_cast<double>(oracle.heap_capacity_bytes()) / (1024.0 * 1024.0);
  t.probe_ns = probe_ns(oracle, index, g, rng);

  // A single random list as long as the index's Euler tour (2 entries per
  // tree edge).
  t.list_length = 2 * static_cast<std::size_t>(std::max(index.num_indexed(), 1));
  std::vector<std::uint32_t> order(t.list_length);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::vector<std::uint32_t> next(t.list_length, pardfs::pram::kListEnd);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) next[order[i]] = order[i + 1];
  t.list_rank_us = median_us([&] { (void)pardfs::pram::list_rank(next); });

  t.find_cuts_us = median_us([&] { (void)pardfs::find_cuts(g, parent); });
  t.static_dfs_us = median_us([&] { (void)pardfs::static_dfs(g); });
  return t;
}

}  // namespace perfbench
