// The fuzz harness tested as a subsystem: small runs of every family x engine
// cell must come back clean, the whole thing must be deterministic per seed
// (including across engine thread counts), and — the part that proves the
// oracle has teeth — an injected corruption must FAIL the run with a replay
// line that reproduces it.
#include "testing/fuzz.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pardfs::testing {
namespace {

// The engine shapes every harness property is checked over: core, the
// 1-shard router, and the 4-shard router with a fault plan armed (inert
// when chaos is compiled out).
struct Cell {
  const char* name;
  FuzzEntry entry;
  int shards;
  int faults;
};
constexpr Cell kCells[] = {
    {"core", FuzzEntry::kCore, 4, 0},
    {"router S=1", FuzzEntry::kRouter, 1, 0},
    {"router S=4 + plan", FuzzEntry::kRouter, 4, kDefaultChaosFaults},
};

FuzzOptions small_options(FuzzFamily family, const Cell& cell,
                          std::uint64_t seed) {
  FuzzOptions o;
  o.seed = seed;
  o.family = family;
  o.entry = cell.entry;
  o.num_shards = cell.shards;
  o.chaos_faults = cell.faults;
  o.n = 48;
  o.batches = 8;
  o.queries_per_batch = 12;
  o.cut_checks_per_batch = 2;
  return o;
}

TEST(Fuzz, EveryFamilyAndEntryPassesSmallRuns) {
  for (const FuzzFamily family :
       {FuzzFamily::kRandom, FuzzFamily::kPowerLaw, FuzzFamily::kGrid,
        FuzzFamily::kDynamicMap}) {
    for (const Cell& cell : kCells) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const FuzzResult r = run_fuzz(small_options(family, cell, seed));
        ASSERT_TRUE(r.ok) << family_name(family) << "/" << cell.name
                          << " seed " << seed << ": " << r.failure
                          << "\nreplay: " << r.replay;
        EXPECT_EQ(r.batches, 8u);
        EXPECT_GT(r.updates, 0u);
        EXPECT_GT(r.queries, 0u);
      }
    }
  }
}

TEST(Fuzz, DeterministicPerSeed) {
  for (const Cell& cell : kCells) {
    const FuzzOptions o = small_options(FuzzFamily::kPowerLaw, cell, 7);
    const FuzzResult a = run_fuzz(o);
    const FuzzResult b = run_fuzz(o);
    EXPECT_EQ(a.ok, b.ok) << cell.name;
    EXPECT_EQ(a.batches, b.batches) << cell.name;
    EXPECT_EQ(a.updates, b.updates) << cell.name;
    EXPECT_EQ(a.queries, b.queries) << cell.name;
  }
}

TEST(Fuzz, DeterministicAcrossThreadCounts) {
  // The engine's forest is identical at any worker-team size (the PR 4
  // contract), so the whole fuzz verdict must be too.
  for (const Cell& cell : kCells) {
    FuzzOptions o = small_options(FuzzFamily::kRandom, cell, 9);
    o.num_threads = 1;
    const FuzzResult serial = run_fuzz(o);
    o.num_threads = 4;
    const FuzzResult parallel = run_fuzz(o);
    ASSERT_TRUE(serial.ok) << cell.name << ": " << serial.failure;
    ASSERT_TRUE(parallel.ok) << cell.name << ": " << parallel.failure;
    EXPECT_EQ(serial.batches, parallel.batches) << cell.name;
    EXPECT_EQ(serial.updates, parallel.updates) << cell.name;
    EXPECT_EQ(serial.queries, parallel.queries) << cell.name;
  }
}

TEST(Fuzz, InjectedCorruptionIsCaughtWithReplayLine) {
  for (const Cell& cell : kCells) {
    FuzzOptions o = small_options(FuzzFamily::kGrid, cell, 5);
    o.corrupt_at = 3;
    const FuzzResult r = run_fuzz(o);
    ASSERT_FALSE(r.ok) << cell.name
                       << ": corrupted forest slipped past the oracle";
    EXPECT_NE(r.failure.find("batch 3"), std::string::npos) << r.failure;
    EXPECT_NE(r.replay.find("--seed=5"), std::string::npos) << r.replay;
    EXPECT_NE(r.replay.find("--corrupt-at=3"), std::string::npos) << r.replay;
    EXPECT_NE(r.replay.find(std::string("--entry=") + entry_name(cell.entry)),
              std::string::npos)
        << r.replay;
    EXPECT_EQ(r.replay.find("--chaos-faults=") != std::string::npos,
              cell.faults > 0)
        << r.replay;
#if !defined(PARDFS_NO_METRICS)
    // The failure carries the registry's fuzz counters so a replayed seed
    // can be cross-checked against the original run's counts.
    EXPECT_NE(r.obs_counters.find("pardfs_fuzz_batches_total="),
              std::string::npos)
        << r.obs_counters;
    EXPECT_NE(r.obs_counters.find("pardfs_fuzz_queries_total="),
              std::string::npos)
        << r.obs_counters;
#else
    EXPECT_TRUE(r.obs_counters.empty());
#endif
    // The replay line must actually reproduce the failure.
    const FuzzResult again = run_fuzz(o);
    EXPECT_EQ(again.failure, r.failure);
  }
}

TEST(Fuzz, ArmedPlanReportsFiredFaults) {
  FuzzOptions o = small_options(FuzzFamily::kRandom, kCells[2], 11);
  o.batches = 12;
  const FuzzResult r = run_fuzz(o);
  ASSERT_TRUE(r.ok) << r.failure << "\nreplay: " << r.replay;
#if defined(PARDFS_ENABLE_CHAOS)
  EXPECT_GE(r.faults_injected, 1u) << r.replay;
#else
  EXPECT_EQ(r.faults_injected, 0u);
#endif
  // Without a plan nothing is armed, so nothing can fire.
  o.chaos_faults = 0;
  EXPECT_EQ(run_fuzz(o).faults_injected, 0u);
}

TEST(Fuzz, OldEntryNamesAreRouterCells) {
  // An old replay line's flags, in order, then the entry alias on top.
  struct Alias {
    const char* name;
    int shards;
    int faults;
  };
  for (const Alias& alias : {Alias{"service", 1, 0}, Alias{"sharded", 4, 0},
                             Alias{"chaos", 4, kDefaultChaosFaults}}) {
    FuzzOptions parsed = small_options(FuzzFamily::kGrid, kCells[0], 5);
    parsed.num_shards = 4;
    parsed.chaos_seed = 3;
    ASSERT_TRUE(parse_entry(alias.name, parsed)) << alias.name;
    EXPECT_EQ(parsed.entry, FuzzEntry::kRouter) << alias.name;
    EXPECT_EQ(parsed.num_shards, alias.shards) << alias.name;
    EXPECT_EQ(parsed.chaos_faults, alias.faults) << alias.name;

    FuzzOptions cell = small_options(
        FuzzFamily::kGrid, {alias.name, FuzzEntry::kRouter, alias.shards,
                            alias.faults},
        5);
    cell.chaos_seed = 3;
    EXPECT_EQ(replay_line(parsed), replay_line(cell));
    const FuzzResult a = run_fuzz(parsed);
    const FuzzResult b = run_fuzz(cell);
    ASSERT_TRUE(a.ok) << alias.name << ": " << a.failure;
    EXPECT_EQ(a.batches, b.batches) << alias.name;
    EXPECT_EQ(a.updates, b.updates) << alias.name;
    EXPECT_EQ(a.queries, b.queries) << alias.name;

    parsed.corrupt_at = 3;
    cell.corrupt_at = 3;
    const FuzzResult fa = run_fuzz(parsed);
    ASSERT_FALSE(fa.ok) << alias.name;
    EXPECT_EQ(fa.failure, run_fuzz(cell).failure) << alias.name;
  }
  // The chaos alias keeps an explicit fault count; the fault-free aliases
  // clear it.
  FuzzOptions o;
  o.chaos_faults = 2;
  ASSERT_TRUE(parse_entry("chaos", o));
  EXPECT_EQ(o.chaos_faults, 2);
  ASSERT_TRUE(parse_entry("sharded", o));
  EXPECT_EQ(o.chaos_faults, 0);
}

TEST(Fuzz, SoakMatrixAccumulatesAcrossCells) {
  FuzzOptions o;
  o.seed = 100;
  o.batches = 4;
  o.n = 32;
  const FuzzResult r = run_soak(o, /*seeds=*/1);
  ASSERT_TRUE(r.ok) << r.failure << "\nreplay: " << r.replay;
  // 1 seed x 4 families x (3 fault-free cells — core, router at 1 and 4
  // shards — + kChaosSchedulesPerSeed fault plans) x 4 batches.
  EXPECT_EQ(r.batches, 4u * (3 + kChaosSchedulesPerSeed) * 4);
}

TEST(Fuzz, NamesRoundTrip) {
  for (const FuzzFamily f : {FuzzFamily::kRandom, FuzzFamily::kPowerLaw,
                             FuzzFamily::kGrid, FuzzFamily::kDynamicMap}) {
    FuzzFamily parsed;
    ASSERT_TRUE(parse_family(family_name(f), parsed));
    EXPECT_EQ(parsed, f);
  }
  for (const FuzzEntry e : {FuzzEntry::kCore, FuzzEntry::kRouter}) {
    FuzzOptions parsed;
    parsed.entry = e == FuzzEntry::kCore ? FuzzEntry::kRouter : FuzzEntry::kCore;
    ASSERT_TRUE(parse_entry(entry_name(e), parsed));
    EXPECT_EQ(parsed.entry, e);
  }
  FuzzFamily f;
  FuzzOptions o;
  EXPECT_FALSE(parse_family("hexagonal", f));
  EXPECT_FALSE(parse_entry("sideways", o));
}

}  // namespace
}  // namespace pardfs::testing
