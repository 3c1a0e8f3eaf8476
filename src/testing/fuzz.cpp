#include "testing/fuzz.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/static_dfs.hpp"
#include "core/articulation.hpp"
#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "service/dfs_service.hpp"
#include "service/workload.hpp"
#include "testing/chaos.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace pardfs::testing {

const char* family_name(FuzzFamily f) {
  switch (f) {
    case FuzzFamily::kRandom: return "random";
    case FuzzFamily::kPowerLaw: return "power_law";
    case FuzzFamily::kGrid: return "grid";
    case FuzzFamily::kDynamicMap: return "dynamic_map";
  }
  return "unknown";
}

const char* entry_name(FuzzEntry e) {
  switch (e) {
    case FuzzEntry::kCore: return "core";
    case FuzzEntry::kRouter: return "router";
  }
  return "unknown";
}

bool parse_family(std::string_view name, FuzzFamily& out) {
  for (const FuzzFamily f : {FuzzFamily::kRandom, FuzzFamily::kPowerLaw,
                             FuzzFamily::kGrid, FuzzFamily::kDynamicMap}) {
    if (name == family_name(f)) {
      out = f;
      return true;
    }
  }
  return false;
}

bool parse_entry(std::string_view name, FuzzOptions& out) {
  for (const FuzzEntry e : {FuzzEntry::kCore, FuzzEntry::kRouter}) {
    if (name == entry_name(e)) {
      out.entry = e;
      return true;
    }
  }
  // The entries the router subsumed, as its (shards, faults) cells.
  if (name == "service") {
    out.num_shards = 1;
    out.chaos_faults = 0;
  } else if (name == "sharded") {
    out.chaos_faults = 0;
  } else if (name == "chaos") {
    if (out.chaos_faults <= 0) out.chaos_faults = kDefaultChaosFaults;
  } else {
    return false;
  }
  out.entry = FuzzEntry::kRouter;
  return true;
}

std::string replay_line(const FuzzOptions& o) {
  std::string line = "pardfs_fuzz --seed=" + std::to_string(o.seed);
  line += " --scenario=" + std::string(family_name(o.family));
  line += " --entry=" + std::string(entry_name(o.entry));
  line += " --n=" + std::to_string(o.n);
  line += " --batches=" + std::to_string(o.batches);
  line += " --max-batch=" + std::to_string(o.max_batch);
  line += " --threads=" + std::to_string(o.num_threads);
  if (o.entry == FuzzEntry::kRouter) {
    line += " --shards=" + std::to_string(o.num_shards);
    if (o.chaos_faults > 0) {
      line += " --chaos-seed=" + std::to_string(o.chaos_seed);
      line += " --chaos-faults=" + std::to_string(o.chaos_faults);
    }
  }
  if (o.corrupt_at >= 0) line += " --corrupt-at=" + std::to_string(o.corrupt_at);
  if (o.force_scalar) line += " --force-scalar";
  return line;
}

namespace {

// ---- registry mirrors of the run counters ----------------------------------
// Process-global by design: a failure snapshot of these lets a replayed seed
// (fresh process, same options) be cross-checked against the original run's
// counts before the oracle even fires.
obs::Counter& fuzz_batches_ctr() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_fuzz_batches_total");
  return c;
}
obs::Counter& fuzz_queries_ctr() {
  static obs::Counter& c =
      obs::Registry::global().counter("pardfs_fuzz_queries_total");
  return c;
}

std::string obs_counters_line() {
#if defined(PARDFS_NO_METRICS)
  return std::string();
#else
  return "pardfs_fuzz_batches_total=" +
         std::to_string(fuzz_batches_ctr().value()) +
         " pardfs_fuzz_queries_total=" +
         std::to_string(fuzz_queries_ctr().value());
#endif
}

// ---- brute-force reference answers (walks over the raw parent array) -------

Vertex brute_root(std::span<const Vertex> parent, Vertex v) {
  while (parent[static_cast<std::size_t>(v)] != kNullVertex) {
    v = parent[static_cast<std::size_t>(v)];
  }
  return v;
}

std::int32_t brute_depth(std::span<const Vertex> parent, Vertex v) {
  std::int32_t d = 0;
  while (parent[static_cast<std::size_t>(v)] != kNullVertex) {
    v = parent[static_cast<std::size_t>(v)];
    ++d;
  }
  return d;
}

bool brute_is_ancestor(std::span<const Vertex> parent, Vertex a, Vertex d) {
  for (Vertex x = d; x != kNullVertex; x = parent[static_cast<std::size_t>(x)]) {
    if (x == a) return true;
  }
  return false;
}

Vertex brute_lca(std::span<const Vertex> parent, Vertex u, Vertex v) {
  std::vector<std::uint8_t> mark(parent.size(), 0);
  for (Vertex x = u; x != kNullVertex; x = parent[static_cast<std::size_t>(x)]) {
    mark[static_cast<std::size_t>(x)] = 1;
  }
  for (Vertex x = v; x != kNullVertex; x = parent[static_cast<std::size_t>(x)]) {
    if (mark[static_cast<std::size_t>(x)]) return x;
  }
  return kNullVertex;
}

// Connected components of g among alive vertices, optionally pretending
// `skip` was deleted (kNullVertex = no skip). The remove-one oracle.
int count_components(const Graph& g, Vertex skip) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(g.capacity()), 0);
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
}

bool brute_articulation(const Graph& g, Vertex v, int base_comps) {
  return g.degree(v) > 0 && count_components(g, v) > base_comps;
}

bool brute_bridge(const Graph& g, Vertex u, Vertex v, int base_comps) {
  Graph h = g;
  h.remove_edge(u, v);
  return count_components(h, kNullVertex) > base_comps;
}

Vertex random_alive(const Graph& g, Rng& rng) {
  if (g.num_vertices() == 0) return kNullVertex;
  for (;;) {
    const Vertex v =
        static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
    if (g.is_alive(v)) return v;
  }
}

// ---- update stream (the generator side of the interleaving) ----------------

struct GeneratedUpdate {
  GraphUpdate update;
  // For kInsertVertex: the id the mirror assigned — the engine must assign
  // the same one (ids are handed out in capacity order on both sides).
  Vertex expected_vertex = kNullVertex;
};

class UpdateStream {
 public:
  virtual ~UpdateStream() = default;
  virtual const Graph& mirror() const = 0;
  virtual bool next(GeneratedUpdate& out) = 0;
};

// Raw feasible-update mix over one mirror graph (random / power_law / grid).
// The mix rotates with the seed so the soak matrix also covers delete-heavy
// and insert-heavy streams.
class RawStream final : public UpdateStream {
 public:
  RawStream(Graph initial, Rng rng, std::uint64_t seed)
      : mirror_(std::move(initial)), rng_(rng) {
    switch (seed % 3) {
      case 0: w_ = {1.0, 1.0, 0.3, 0.2}; break;   // balanced
      case 1: w_ = {0.25, 1.0, 0.05, 0.7}; break; // delete-heavy
      default: w_ = {1.5, 0.4, 0.6, 0.1}; break;  // insert-heavy
    }
  }

  const Graph& mirror() const override { return mirror_; }

  bool next(GeneratedUpdate& out) override {
    gen::Update u;
    if (!gen::random_update(mirror_, rng_, w_[0], w_[1], w_[2], w_[3], u)) {
      return false;
    }
    out.expected_vertex = gen::apply_update(mirror_, u);
    switch (u.kind) {
      case gen::UpdateKind::kInsertEdge:
        out.update = GraphUpdate::insert_edge(u.u, u.v);
        break;
      case gen::UpdateKind::kDeleteEdge:
        out.update = GraphUpdate::delete_edge(u.u, u.v);
        break;
      case gen::UpdateKind::kInsertVertex:
        out.update = GraphUpdate::insert_vertex(std::move(u.neighbors));
        break;
      case gen::UpdateKind::kDeleteVertex:
        out.update = GraphUpdate::delete_vertex(u.u);
        break;
    }
    return true;
  }

 private:
  Graph mirror_;
  Rng rng_;
  std::array<double, 4> w_{1.0, 1.0, 0.0, 0.0};
};

// The dynamic_map obstacle-churn scenario, reusing the service's driver
// (which owns its own mirror and feasibility bookkeeping).
class MapStream final : public UpdateStream {
 public:
  explicit MapStream(service::WorkloadSpec spec) : driver_(spec) {}

  const Graph& mirror() const override { return driver_.graph(); }

  bool next(GeneratedUpdate& out) override {
    const Vertex before = driver_.graph().capacity();
    out.update = driver_.next();
    out.expected_vertex =
        out.update.kind == GraphUpdate::Kind::kInsertVertex ? before : kNullVertex;
    return true;
  }

 private:
  service::WorkloadDriver driver_;
};

std::unique_ptr<UpdateStream> make_stream(const FuzzOptions& o, Graph* initial_out) {
  Rng graph_rng(o.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  Rng stream_rng(o.seed * 0x2545F4914F6CDD1DULL + 0xA0761D6478BD642FULL);
  const Vertex n = std::max<Vertex>(o.n, 16);
  switch (o.family) {
    case FuzzFamily::kRandom: {
      Graph g = gen::random_connected(n, 2 * static_cast<std::int64_t>(n), graph_rng);
      *initial_out = g;
      return std::make_unique<RawStream>(std::move(g), stream_rng, o.seed);
    }
    case FuzzFamily::kPowerLaw: {
      Graph g = gen::barabasi_albert(n, 3, graph_rng);
      *initial_out = g;
      return std::make_unique<RawStream>(std::move(g), stream_rng, o.seed);
    }
    case FuzzFamily::kGrid: {
      Vertex rows = 2;
      while ((rows + 1) * (rows + 1) <= n) ++rows;
      const Vertex cols = std::max<Vertex>(n / rows, 2);
      Graph g = gen::grid(rows, cols);
      *initial_out = g;
      return std::make_unique<RawStream>(std::move(g), stream_rng, o.seed);
    }
    case FuzzFamily::kDynamicMap: {
      service::WorkloadSpec spec;
      spec.scenario = service::Scenario::kDynamicMap;
      spec.n = n;
      spec.seed = o.seed;
      *initial_out = service::make_initial_graph(spec);
      return std::make_unique<MapStream>(spec);
    }
  }
  return nullptr;
}

// ---- engine adapters (the system under test) -------------------------------

class Engine {
 public:
  virtual ~Engine() = default;
  // Applies one batch; false (with *err set) on an unexpected rejection.
  virtual bool apply(const std::vector<GeneratedUpdate>& batch, std::string* err) = 0;

  virtual std::vector<Vertex> parent_copy() const = 0;
  virtual Vertex num_vertices() const = 0;
  virtual std::int64_t num_edges() const = 0;

  // Queries under test. `total` says whether out-of-range / dead ids are in
  // the query contract (service snapshots) or a caller error (core).
  virtual bool total() const = 0;
  virtual Vertex q_parent(Vertex v) const = 0;
  virtual Vertex q_root(Vertex v) const = 0;
  virtual std::int32_t q_depth(Vertex v) const = 0;
  virtual bool q_ancestor(Vertex a, Vertex d) const = 0;
  virtual Vertex q_lca(Vertex u, Vertex v) const = 0;
  virtual bool q_reachable(Vertex u, Vertex v) const = 0;
  virtual std::vector<Vertex> q_path_to_root(Vertex v) const = 0;
  virtual bool q_articulation(Vertex v) const = 0;
  virtual bool q_bridge(Vertex u, Vertex v) const = 0;
  virtual std::vector<Edge> q_bridges() const = 0;

  // Faults the armed plan has fired so far (0 without a plan).
  virtual std::uint64_t faults_fired() const { return 0; }
};

class CoreEngine final : public Engine {
 public:
  CoreEngine(Graph initial, int num_threads)
      : dfs_(std::move(initial), RerootStrategy::kPaper, nullptr, num_threads) {}

  bool apply(const std::vector<GeneratedUpdate>& batch, std::string* err) override {
    std::vector<GraphUpdate> updates;
    updates.reserve(batch.size());
    for (const GeneratedUpdate& g : batch) updates.push_back(g.update);
    const BatchStats stats = dfs_.apply_batch(updates);
    std::size_t next_new = 0;
    for (const GeneratedUpdate& g : batch) {
      if (g.update.kind != GraphUpdate::Kind::kInsertVertex) continue;
      const Vertex got = stats.new_vertices[next_new++];
      if (got != g.expected_vertex) {
        *err = "apply_batch assigned vertex " + std::to_string(got) +
               ", mirror assigned " + std::to_string(g.expected_vertex);
        return false;
      }
    }
    cuts_ = find_cuts(dfs_.graph(), dfs_.parent());
    return true;
  }

  std::vector<Vertex> parent_copy() const override {
    return {dfs_.parent().begin(), dfs_.parent().end()};
  }
  Vertex num_vertices() const override { return dfs_.graph().num_vertices(); }
  std::int64_t num_edges() const override { return dfs_.graph().num_edges(); }

  bool total() const override { return false; }
  Vertex q_parent(Vertex v) const override { return dfs_.parent_of(v); }
  Vertex q_root(Vertex v) const override { return dfs_.root_of(v); }
  std::int32_t q_depth(Vertex v) const override { return dfs_.tree().depth(v); }
  bool q_ancestor(Vertex a, Vertex d) const override {
    return dfs_.tree().is_ancestor(a, d);
  }
  Vertex q_lca(Vertex u, Vertex v) const override { return dfs_.tree().lca(u, v); }
  bool q_reachable(Vertex u, Vertex v) const override {
    return dfs_.root_of(u) == dfs_.root_of(v);
  }
  std::vector<Vertex> q_path_to_root(Vertex v) const override {
    std::vector<Vertex> out;
    for (Vertex x = v; x != kNullVertex; x = dfs_.parent_of(x)) out.push_back(x);
    return out;
  }
  bool q_articulation(Vertex v) const override {
    return cuts_.is_articulation[static_cast<std::size_t>(v)] != 0;
  }
  bool q_bridge(Vertex u, Vertex v) const override {
    for (const Edge& b : cuts_.bridges) {
      if ((b.u == u && b.v == v) || (b.u == v && b.v == u)) return true;
    }
    return false;
  }
  std::vector<Edge> q_bridges() const override { return cuts_.bridges; }

 private:
  DynamicDfs dfs_;
  CutStructure cuts_;  // refreshed after every batch
};

// The router differential (FuzzEntry::kRouter): an S-shard router in
// lock-step with an un-faulted 1-shard reference. Every update goes through
// the canonical client retry loop (service/workload.hpp submit_with_retry —
// resubmit on kRetryable/kOverloaded, re-wait on kTimeout) until definitive,
// then through the reference (apply order = stream order — the serialized
// regime under which the router guarantees shard-count invariance). After
// every batch the assembled router forest must equal the reference snapshot
// byte for byte (parents, aliveness, totals, and every shard still serving
// its cut structure). With chaos_faults > 0 a seeded fault plan is armed for
// the run, and whatever crashed and replayed must still land on the
// reference forest: the journal-replay recovery proof of DESIGN.md §13.
// Queries answer through RouterView, so the directory-resolve path and the
// cross-shard totality defaults are under test too.
class RouterEngine final : public Engine {
 public:
  RouterEngine(Graph initial, const FuzzOptions& o)
      : faulted_(o.chaos_faults > 0),
        router_(initial, make_config(o, std::max(o.num_shards, 1), faulted_)),
        ref_(std::move(initial), make_config(o, 1, false)) {
    if (faulted_) {
      // Specs match any shard, and one shard owns nearly all the work of a
      // connected graph, so a horizon of half the expected updates lands the
      // drawn trigger offsets inside the run.
      const std::int64_t horizon = std::clamp<std::int64_t>(
          std::int64_t{o.batches} * std::max(o.max_batch, 1) / 2, 4, UINT32_MAX);
      chaos::arm(chaos::FaultPlan::random(o.chaos_seed, o.chaos_faults,
                                          static_cast<std::uint32_t>(horizon)));
    }
  }
  ~RouterEngine() override {
    // Disarm before stopping the routers: shutdown drains should not trip
    // leftover faults (they would still recover, but the run is over).
    if (faulted_) chaos::disarm();
    router_.stop();
    ref_.stop();
  }

  bool apply(const std::vector<GeneratedUpdate>& batch, std::string* err) override {
    // Generous budget: ~20 s of 50 ms waits. Only a genuinely wedged
    // recovery (the bug a fault plan hunts) exhausts it.
    service::RetryPolicy policy;
    policy.max_attempts = 400;
    policy.ack_timeout = std::chrono::milliseconds(50);
    policy.initial_backoff = std::chrono::microseconds(50);
    policy.max_backoff = std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const GeneratedUpdate& g = batch[i];
      const service::SubmitOutcome out =
          service::submit_with_retry(router_, g.update, policy);
      if (!out.definitive()) {
        *err = "update " + std::to_string(i) + " never became definitive (" +
               std::to_string(out.attempts) + " attempts, last status " +
               service::UpdateTicket::status_name(out.result) +
               ") — recovery wedged";
        return false;
      }
      service::UpdateTicket rt = ref_.submit(g.update);
      const std::uint64_t rv = rt.wait();
      const bool s_rej = out.result == service::UpdateTicket::kRejected;
      const bool r_rej = rv == service::UpdateTicket::kRejected;
      if (s_rej != r_rej) {
        *err = "accept/reject divergence at update " + std::to_string(i) +
               ": router " + (s_rej ? "rejected" : "accepted") +
               ", reference " + (r_rej ? "rejected" : "accepted");
        return false;
      }
      if (s_rej) {
        *err = "both stacks rejected feasible update " + std::to_string(i) +
               " (mirror-contract violation)";
        return false;
      }
      if (g.update.kind == GraphUpdate::Kind::kInsertVertex &&
          (out.assigned_vertex != g.expected_vertex ||
           rt.assigned_vertex() != g.expected_vertex)) {
        *err = "vertex-id divergence: router assigned " +
               std::to_string(out.assigned_vertex) + ", reference " +
               std::to_string(rt.assigned_vertex()) + ", mirror " +
               std::to_string(g.expected_vertex);
        return false;
      }
    }
    return compare_assembled(err);
  }

  std::vector<Vertex> parent_copy() const override {
    return router_.assemble_parent();
  }
  Vertex num_vertices() const override { return router_.num_vertices(); }
  std::int64_t num_edges() const override { return router_.num_edges(); }

  bool total() const override { return true; }
  Vertex q_parent(Vertex v) const override { return router_.view().parent_of(v); }
  Vertex q_root(Vertex v) const override { return router_.view().root_of(v); }
  std::int32_t q_depth(Vertex v) const override { return router_.view().depth(v); }
  bool q_ancestor(Vertex a, Vertex d) const override {
    return router_.view().is_ancestor(a, d);
  }
  Vertex q_lca(Vertex u, Vertex v) const override {
    return router_.view().lca(u, v);
  }
  bool q_reachable(Vertex u, Vertex v) const override {
    return router_.view().reachable(u, v);
  }
  std::vector<Vertex> q_path_to_root(Vertex v) const override {
    return router_.view().path_to_root(v);
  }
  bool q_articulation(Vertex v) const override {
    return router_.view().is_articulation(v);
  }
  bool q_bridge(Vertex u, Vertex v) const override {
    return router_.view().is_bridge(u, v);
  }
  std::vector<Edge> q_bridges() const override { return router_.view().bridges(); }

  std::uint64_t faults_fired() const override {
    return faulted_ ? chaos::faults_injected() : 0;
  }

 private:
  static service::ServiceConfig make_config(const FuzzOptions& o,
                                            int num_shards, bool faulted) {
    service::ServiceConfig config;
    config.queue_capacity = static_cast<std::size_t>(std::max(o.max_batch, 1)) + 8;
    config.max_batch = 1;  // exact per-update drains: deterministic replay
    config.num_threads = o.num_threads;
    config.serve_cuts = true;
    config.num_shards = static_cast<std::size_t>(num_shards);
    if (faulted) {
      // Only this router consults the process-wide plan; the reference
      // stays un-faulted. A fast watchdog keeps crash-to-failover latency
      // (and therefore the retry loop) far below the retry budget.
      config.enable_chaos = true;
      config.watchdog_poll_ms = 1;
    }
    return config;
  }

  // The differential: byte-identical forests at S shards and at 1 shard.
  bool compare_assembled(std::string* err) const {
    const service::SnapshotPtr ref = ref_.snapshot();
    const std::vector<Vertex> sharded = router_.assemble_parent();
    const std::vector<std::uint8_t> alive = router_.assemble_alive();
    const auto ref_parent = ref->parent();
    if (sharded.size() != ref_parent.size()) {
      *err = "assembled capacity " + std::to_string(sharded.size()) +
             " differs from reference " + std::to_string(ref_parent.size());
      return false;
    }
    for (std::size_t v = 0; v < sharded.size(); ++v) {
      if (sharded[v] != ref_parent[v]) {
        *err = "parent(" + std::to_string(v) + ") = " + std::to_string(sharded[v]) +
               " at " + std::to_string(router_.num_shards()) + " shards, " +
               std::to_string(ref_parent[v]) + " at 1 shard";
        return false;
      }
      if ((alive[v] != 0) != ref->contains(static_cast<Vertex>(v))) {
        *err = "alive(" + std::to_string(v) + ") diverges from the reference";
        return false;
      }
    }
    if (router_.num_vertices() != ref->num_vertices() ||
        router_.num_edges() != ref->num_edges()) {
      *err = "vertex/edge totals diverge from the 1-shard reference";
      return false;
    }
    for (std::size_t s = 0; s < router_.num_shards(); ++s) {
      if (!router_.shard_snapshot(s)->serves_cuts()) {
        *err = "shard " + std::to_string(s) +
               " snapshot lost its cut structure despite serve_cuts";
        return false;
      }
    }
    return true;
  }

  const bool faulted_;  // a fault plan is armed for this run
  service::ShardRouter router_;
  service::DfsService ref_;
};

// ---- the per-batch oracle --------------------------------------------------

// Flips one parent entry so the forest stops being a DFS forest — the debug
// corruption the harness must catch (acceptance: usable replay line).
void inject_corruption(const Graph& mirror, std::vector<Vertex>& parent) {
  for (Vertex v = 0; v < mirror.capacity(); ++v) {
    const Vertex p = parent[static_cast<std::size_t>(v)];
    if (mirror.is_alive(v) && p != kNullVertex) {
      parent[static_cast<std::size_t>(p)] = v;  // two-cycle v <-> p
      return;
    }
  }
  for (Vertex v = 0; v < mirror.capacity(); ++v) {
    if (mirror.is_alive(v)) {
      parent[static_cast<std::size_t>(v)] = v;  // self-loop "tree edge"
      return;
    }
  }
}

struct BatchCheckContext {
  const FuzzOptions& options;
  int batch_index;
  const Graph& mirror;
  const Engine& engine;
  Rng& rng;
  FuzzResult& result;

  bool fail(const std::string& what) const {
    result.ok = false;
    result.failure = "batch " + std::to_string(batch_index) + " [" +
                     family_name(options.family) + "/" +
                     entry_name(options.entry) + "]: " + what;
    result.replay = replay_line(options);
    result.obs_counters = obs_counters_line();
    return false;
  }
};

bool check_batch(BatchCheckContext ctx) {
  const Graph& mirror = ctx.mirror;
  const Engine& eng = ctx.engine;
  std::vector<Vertex> parent = eng.parent_copy();
  if (ctx.options.corrupt_at == ctx.batch_index) {
    inject_corruption(mirror, parent);
  }

  // 1. The engine's graph state must not have drifted from the mirror.
  if (static_cast<Vertex>(parent.size()) != mirror.capacity()) {
    return ctx.fail("capacity drift: engine " + std::to_string(parent.size()) +
                    " vs mirror " + std::to_string(mirror.capacity()));
  }
  if (eng.num_vertices() != mirror.num_vertices()) {
    return ctx.fail("vertex-count drift: engine " +
                    std::to_string(eng.num_vertices()) + " vs mirror " +
                    std::to_string(mirror.num_vertices()));
  }
  if (eng.num_edges() != mirror.num_edges()) {
    return ctx.fail("edge-count drift: engine " + std::to_string(eng.num_edges()) +
                    " vs mirror " + std::to_string(mirror.num_edges()));
  }

  // 2. The maintained forest must be a valid DFS forest of the mirror.
  const ValidationResult val = validate_dfs_forest(mirror, parent);
  if (!val.ok) return ctx.fail("forest invalid: " + val.reason);

  // 3. Differential vs the reference backend: a fresh static recompute must
  //    induce the same component partition (reachability equivalence).
  const std::vector<Vertex> ref = static_dfs(mirror);
  std::vector<Vertex> eng_root(parent.size(), kNullVertex);
  std::vector<Vertex> ref_root(parent.size(), kNullVertex);
  std::vector<Vertex> eng_to_ref(parent.size(), kNullVertex);
  std::vector<Vertex> ref_to_eng(parent.size(), kNullVertex);
  for (Vertex v = 0; v < mirror.capacity(); ++v) {
    if (!mirror.is_alive(v)) continue;
    const std::size_t i = static_cast<std::size_t>(v);
    eng_root[i] = brute_root(parent, v);
    ref_root[i] = brute_root(ref, v);
    Vertex& fwd = eng_to_ref[static_cast<std::size_t>(eng_root[i])];
    Vertex& bwd = ref_to_eng[static_cast<std::size_t>(ref_root[i])];
    if (fwd == kNullVertex) fwd = ref_root[i];
    if (bwd == kNullVertex) bwd = eng_root[i];
    if (fwd != ref_root[i] || bwd != eng_root[i]) {
      return ctx.fail("reachability differs from static_dfs reference at vertex " +
                      std::to_string(v));
    }
  }

  // 4. Sampled queries against brute-force walks of the engine's own parent
  //    array (and the reference partition for reachability).
  const Vertex cap = mirror.capacity();
  for (int q = 0; q < ctx.options.queries_per_batch; ++q) {
    ++ctx.result.queries;
    fuzz_queries_ctr().add();
    if (eng.total() && ctx.rng.coin(0.15)) {
      // Totality probes: ids outside the graph (or dead) must answer the
      // benign defaults, never abort the server.
      const Vertex bad = ctx.rng.coin(0.5)
                             ? static_cast<Vertex>(cap + ctx.rng.below(4))
                             : static_cast<Vertex>(-1 - ctx.rng.below(2));
      if (eng.q_parent(bad) != kNullVertex || eng.q_root(bad) != kNullVertex ||
          eng.q_depth(bad) != -1 || eng.q_lca(bad, 0) != kNullVertex ||
          eng.q_reachable(bad, bad) || eng.q_articulation(bad) ||
          !eng.q_path_to_root(bad).empty()) {
        return ctx.fail("non-total answer for invalid id " + std::to_string(bad));
      }
      continue;
    }
    const Vertex u = random_alive(mirror, ctx.rng);
    const Vertex v = random_alive(mirror, ctx.rng);
    if (u == kNullVertex || v == kNullVertex) break;
    const std::size_t ui = static_cast<std::size_t>(u);
    if (eng.q_parent(u) != parent[ui]) {
      return ctx.fail("parent(" + std::to_string(u) + ") = " +
                      std::to_string(eng.q_parent(u)) + ", parent array says " +
                      std::to_string(parent[ui]));
    }
    if (eng.q_root(u) != eng_root[ui]) {
      return ctx.fail("root_of(" + std::to_string(u) + ") = " +
                      std::to_string(eng.q_root(u)) + ", brute walk says " +
                      std::to_string(eng_root[ui]));
    }
    if (eng.q_depth(u) != brute_depth(parent, u)) {
      return ctx.fail("depth(" + std::to_string(u) + ") = " +
                      std::to_string(eng.q_depth(u)) + ", brute walk says " +
                      std::to_string(brute_depth(parent, u)));
    }
    if (eng.q_ancestor(u, v) != brute_is_ancestor(parent, u, v)) {
      return ctx.fail("is_ancestor(" + std::to_string(u) + ", " +
                      std::to_string(v) + ") disagrees with brute walk");
    }
    if (eng.q_lca(u, v) != brute_lca(parent, u, v)) {
      return ctx.fail("lca(" + std::to_string(u) + ", " + std::to_string(v) +
                      ") = " + std::to_string(eng.q_lca(u, v)) +
                      ", brute walk says " +
                      std::to_string(brute_lca(parent, u, v)));
    }
    const bool ref_reach = ref_root[ui] == ref_root[static_cast<std::size_t>(v)];
    if (eng.q_reachable(u, v) != ref_reach) {
      return ctx.fail("reachable(" + std::to_string(u) + ", " + std::to_string(v) +
                      ") disagrees with the static_dfs reference");
    }
    const std::vector<Vertex> path = eng.q_path_to_root(u);
    if (path.empty() || path.front() != u || path.back() != eng_root[ui] ||
        static_cast<std::int32_t>(path.size()) != brute_depth(parent, u) + 1) {
      return ctx.fail("path_to_root(" + std::to_string(u) + ") malformed");
    }
  }

  // 5. Articulation / bridge answers vs the remove-one oracle on the mirror.
  const int base_comps = count_components(mirror, kNullVertex);
  for (int q = 0; q < ctx.options.cut_checks_per_batch; ++q) {
    ++ctx.result.queries;
    fuzz_queries_ctr().add();
    const Vertex v = random_alive(mirror, ctx.rng);
    if (v == kNullVertex) break;
    if (eng.q_articulation(v) != brute_articulation(mirror, v, base_comps)) {
      return ctx.fail("is_articulation(" + std::to_string(v) +
                      ") disagrees with the remove-one-vertex oracle");
    }
    if (mirror.degree(v) > 0) {
      const auto nbrs = mirror.neighbors(v);
      const Vertex w = nbrs[ctx.rng.below(nbrs.size())];
      if (eng.q_bridge(v, w) != brute_bridge(mirror, v, w, base_comps)) {
        return ctx.fail("is_bridge(" + std::to_string(v) + ", " +
                        std::to_string(w) +
                        ") disagrees with the remove-one-edge oracle");
      }
    }
  }
  // Every claimed bridge must be a tree edge of the engine's forest.
  for (const Edge& b : eng.q_bridges()) {
    const Vertex pu = parent[static_cast<std::size_t>(b.u)];
    const Vertex pv = parent[static_cast<std::size_t>(b.v)];
    if (pu != b.v && pv != b.u) {
      return ctx.fail("claimed bridge (" + std::to_string(b.u) + ", " +
                      std::to_string(b.v) + ") is not a tree edge");
    }
  }
  return true;
}

}  // namespace

FuzzResult run_fuzz(const FuzzOptions& options_in) {
  // Fold the ambient scalar pin (env var or an enclosing set_force_scalar)
  // into the recorded options: the replay line must reproduce the dispatch
  // decision the run actually executed under.
  FuzzOptions options = options_in;
  options.force_scalar = options.force_scalar || simd::scalar_forced();
  // Pin for the run, restore the previous state on every exit path.
  struct ScalarGuard {
    bool prev;
    explicit ScalarGuard(bool on) : prev(simd::scalar_forced()) {
      if (on) simd::set_force_scalar(true);
    }
    ~ScalarGuard() { simd::set_force_scalar(prev); }
  } scalar_guard(options.force_scalar);

  FuzzResult result;
  Graph initial;
  const std::unique_ptr<UpdateStream> stream = make_stream(options, &initial);

  std::unique_ptr<Engine> engine;
  if (options.entry == FuzzEntry::kCore) {
    engine = std::make_unique<CoreEngine>(std::move(initial), options.num_threads);
  } else {
    engine = std::make_unique<RouterEngine>(std::move(initial), options);
  }

  // Batch sizes and query samples come from their own deterministic stream,
  // independent of the update generator's.
  Rng harness_rng(options.seed * 0x8CB92BA72F3D8DD7ULL + 0xEB44ACCAB455D165ULL);

  std::vector<GeneratedUpdate> batch;
  for (int b = 0; b < options.batches; ++b) {
    const int k = 1 + static_cast<int>(harness_rng.below(
                          static_cast<std::uint64_t>(std::max(options.max_batch, 1))));
    batch.clear();
    GeneratedUpdate g;
    for (int i = 0; i < k && stream->next(g); ++i) batch.push_back(std::move(g));
    if (batch.empty()) break;  // stream exhausted (degenerate mixes)

    std::string err;
    const bool applied = engine->apply(batch, &err);
    result.faults_injected = engine->faults_fired();
    if (!applied) {
      BatchCheckContext{options, b, stream->mirror(), *engine, harness_rng, result}
          .fail(err);
      return result;
    }
    result.updates += batch.size();
    ++result.batches;
    if (std::any_of(batch.begin(), batch.end(), [](const GeneratedUpdate& u) {
          return u.update.kind == GraphUpdate::Kind::kInsertVertex;
        })) {
      ++result.insert_batches;
    }
    fuzz_batches_ctr().add();

    if (!check_batch({options, b, stream->mirror(), *engine, harness_rng, result})) {
      return result;
    }
  }
  return result;
}

FuzzResult run_soak(std::uint64_t seed_base, int seeds, int batches, Vertex n,
                    int num_threads, bool force_scalar) {
  FuzzResult total;
  // Returns false at the first failing run (stashing it, totals folded in).
  const auto run_one = [&](const FuzzOptions& o) -> bool {
    FuzzResult r = run_fuzz(o);
    r.batches += total.batches;
    r.insert_batches += total.insert_batches;
    r.updates += total.updates;
    r.queries += total.queries;
    r.faults_injected += total.faults_injected;
    total = std::move(r);
    return total.ok;
  };
  for (int s = 0; s < seeds; ++s) {
    for (const FuzzFamily family :
         {FuzzFamily::kRandom, FuzzFamily::kPowerLaw, FuzzFamily::kGrid,
          FuzzFamily::kDynamicMap}) {
      FuzzOptions o;
      o.seed = seed_base + static_cast<std::uint64_t>(s);
      o.family = family;
      o.n = n;
      o.batches = batches;
      o.num_threads = num_threads;
      o.force_scalar = force_scalar;
      if (!run_one(o)) return total;  // core
      o.entry = FuzzEntry::kRouter;
      for (const int shards : {1, 4}) {
        o.num_shards = shards;
        if (!run_one(o)) return total;
      }
      // The SAME update stream under several distinct fault plans.
      o.chaos_faults = kDefaultChaosFaults;
      for (int c = 0; c < kChaosSchedulesPerSeed; ++c) {
        o.chaos_seed = o.seed * kChaosSchedulesPerSeed +
                       static_cast<std::uint64_t>(c) + 1;
        if (!run_one(o)) return total;
      }
    }
  }
  return total;
}

}  // namespace pardfs::testing
