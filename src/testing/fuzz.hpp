// Property-based fuzz gauntlet — the adversarial correctness net over the
// whole update stack (ROADMAP "scenario diversity" item).
//
// A run is a deterministic-per-seed interleaving of random updates and
// queries over one graph family, driven through one of two entry points:
//   * core   — DynamicDfs::apply_batch with combined k-update batches;
//   * router — a num_shards ShardRouter in lock-step with an un-faulted
//              1-shard DfsService reference: every update goes through the
//              client retry loop (workload.hpp's submit_with_retry) until
//              definitive, the reference applies it too, and after every
//              batch the assembled router forest must equal the reference
//              snapshot byte for byte (the shard-count invariance contract
//              of service/shard_router.hpp). With chaos_faults > 0 a seeded
//              fault plan is armed on the router side (testing/chaos.hpp):
//              writer crashes, merge aborts, stalls and admission sheds fire
//              mid-run, and the recovered forest must STILL equal the
//              reference — the journal-replay recovery proof of DESIGN.md
//              §13. With PARDFS_ENABLE_CHAOS compiled out the plan never
//              fires.
// The entries the router subsumed stay as names (parse_entry): `service` is
// the router at 1 shard, `sharded` at num_shards, `chaos` at num_shards with
// a plan armed — so their replay lines still run.
// After every batch the harness re-checks the invariants that define the
// algorithm (arXiv:1502.02481's valid-DFS-forest + total-query semantics):
//   1. tree/validation::validate_dfs_forest against a *mirror* graph the
//      generator maintains independently of the engine;
//   2. a differential check against a simple reference backend — a fresh
//      baseline/static_dfs recompute on the mirror (the à-la-1810.01726
//      "simplest possible rebuild"): both forests must induce the same
//      component partition;
//   3. sampled snapshot/tree queries (parent, reachability, LCA, depth,
//      ancestorhood, path-to-root) against brute-force walks of the parent
//      array, plus articulation/bridge answers against the
//      remove-one-vertex/edge oracle on the mirror.
// On any mismatch the result carries a replay line (`pardfs_fuzz --seed=…`)
// reproducing the failing run. A debug corruption hook (corrupt_at) flips a
// parent entry before the checks of one batch, proving end-to-end that the
// oracle actually catches corruption and the replay line is usable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/edge.hpp"

namespace pardfs::testing {

enum class FuzzFamily : std::uint8_t {
  kRandom,      // gen::random_connected, mixed updates
  kPowerLaw,    // gen::barabasi_albert, hub-heavy updates
  kGrid,        // gen::grid, bounded-degree updates
  kDynamicMap,  // service::WorkloadDriver dynamic_map obstacle churn
};

enum class FuzzEntry : std::uint8_t { kCore, kRouter };

// Faults the `chaos` entry name arms when chaos_faults is unset (0).
inline constexpr int kDefaultChaosFaults = 6;

const char* family_name(FuzzFamily f);
const char* entry_name(FuzzEntry e);
bool parse_family(std::string_view name, FuzzFamily& out);

struct FuzzOptions {
  std::uint64_t seed = 1;
  FuzzFamily family = FuzzFamily::kRandom;
  FuzzEntry entry = FuzzEntry::kCore;
  Vertex n = 96;               // initial graph scale
  int batches = 32;            // update batches per run
  int max_batch = 8;           // batch size drawn uniformly from [1, max_batch]
  int queries_per_batch = 24;  // sampled tree/snapshot queries per batch
  int cut_checks_per_batch = 3;  // brute-force articulation/bridge samples
  int num_threads = 0;         // engine worker-team cap (0 = facade default)
  // Router entry: the shard count driven against the 1-shard reference.
  int num_shards = 4;
  // Router entry: seed of the fault plan (independent of `seed`, so the soak
  // can run several fault schedules over the SAME update stream).
  std::uint64_t chaos_seed = 1;
  // Router entry: faults drawn into the plan; a plan is armed iff > 0.
  int chaos_faults = 0;
  // Debug hook: corrupt the checked parent array before the checks of this
  // batch index (-1 = never). The run must FAIL with a replay line.
  int corrupt_at = -1;
  // Pin the SIMD dispatch (util/simd) to the scalar reference for this run.
  // The effective mode (this flag OR an ambient scalar pin already in
  // force) is captured in the replay line, so a failure replays under the
  // dispatch decision it was found under.
  bool force_scalar = false;
};

// Sets out.entry from an entry name. The old entry names are aliases that
// also set the router's (shards, faults) cell: `service` -> (1, 0),
// `sharded` -> (num_shards, 0), `chaos` -> (num_shards, chaos_faults or
// kDefaultChaosFaults). Apply it after the other options so the alias wins.
bool parse_entry(std::string_view name, FuzzOptions& out);

struct FuzzResult {
  bool ok = true;
  std::string failure;  // first mismatch, with batch index and detail
  std::string replay;   // "pardfs_fuzz --seed=…" line reproducing the run
  // Snapshot of the obs registry's fuzz counters at failure time
  // ("pardfs_fuzz_batches_total=… pardfs_fuzz_queries_total=…"). Replaying
  // the seed in a fresh process must reproduce these counts exactly, so a
  // replay that diverges from the original run is detectable before the
  // oracle even fires. Empty on ok runs and under PARDFS_NO_METRICS.
  std::string obs_counters;
  std::uint64_t batches = 0;
  // Batches holding at least one vertex insert: the engine's segments take
  // them in with the rest of the batch, so this shows that path ran.
  std::uint64_t insert_batches = 0;
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;
  // Faults the armed plan fired (chaos::faults_injected); 0 without a plan
  // or with chaos compiled out.
  std::uint64_t faults_injected = 0;

  explicit operator bool() const { return ok; }
};

// One deterministic run. Same options => same stream, same forests, same
// verdict, at any thread count (the engine's determinism contract).
FuzzResult run_fuzz(const FuzzOptions& options);

// The CI soak matrix: `seeds` consecutive seeds starting at seed_base, over
// every family in {random, power_law, grid, dynamic_map} and six cells each
// — core, the router at 1 and 4 shards, and the 4-shard router under
// kChaosSchedulesPerSeed distinct fault plans — `batches` batches each.
// Stops at the first failure (its result is returned); otherwise returns an
// ok result with the accumulated totals.
inline constexpr int kChaosSchedulesPerSeed = 3;
FuzzResult run_soak(std::uint64_t seed_base, int seeds, int batches, Vertex n,
                    int num_threads = 0, bool force_scalar = false);

// The replay line run_fuzz/run_soak would print for `options`.
std::string replay_line(const FuzzOptions& options);

}  // namespace pardfs::testing
