// pardfs_fuzz — property-based fuzz gauntlet over the dynamic-DFS stack
// (see src/testing/fuzz.hpp for what one run checks).
//
// Modes:
//   * core run (default):      pardfs_fuzz --seed=7 --scenario=grid
//       (DynamicDfs::apply_batch driven directly)
//   * router differential:     pardfs_fuzz --entry=router --shards=8
//       (S-shard router vs 1-shard reference, byte-compared every batch)
//   * router under faults:     pardfs_fuzz --entry=router --chaos-faults=6
//                                --chaos-seed=3
//       (seeded fault schedule armed: writer crashes / merge aborts / stalls
//        / sheds mid-run; every recovery must land byte-identical to the
//        un-faulted reference. Needs -DPARDFS_ENABLE_CHAOS=ON to inject.)
//   * fixed soak matrix:       pardfs_fuzz --soak=8 --batches=16
//       (8 seeds x {random, power_law, grid, dynamic_map}
//                x {core, router at 1 and 4 shards} + 3 fault plans each)
//   * time-budgeted CI soak:   pardfs_fuzz --minutes=5
//       (keeps sweeping the matrix with fresh seeds until the budget runs out)
// The old entry names are aliases of router cells, whatever their position
// on the line: --entry=service is 1 shard without faults, --entry=sharded is
// --shards without faults, --entry=chaos is --shards with --chaos-faults
// (default 6) armed.
//
// Every failure prints the exact replay line that reproduces it:
//   pardfs_fuzz --seed=... --scenario=... --entry=... --n=... --batches=...
// Exit code: 0 = all runs clean, 1 = mismatch found, 2 = bad usage
// (including any malformed or out-of-range number).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "parse_number.hpp"
#include "testing/fuzz.hpp"
#include "util/simd.hpp"

namespace {

using pardfs::testing::FuzzOptions;
using pardfs::testing::FuzzResult;
using pardfs::tools::parse_number;

struct CliOptions {
  FuzzOptions fuzz;
  std::string_view entry;  // --entry=NAME, applied after every other flag
  int soak_seeds = 0;      // --soak=N: fixed matrix of N seeds
  double minutes = 0.0;    // --minutes=M: time-budgeted matrix sweep
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed=U64] [--scenario=random|power_law|grid|dynamic_map]\n"
      "          [--entry=core|router|service|sharded|chaos] [--n=N]\n"
      "          [--batches=B] [--max-batch=K] [--threads=T] [--shards=S]\n"
      "          [--chaos-seed=U64] [--chaos-faults=F] [--corrupt-at=B]\n"
      "          [--soak=SEEDS] [--minutes=M] [--force-scalar]\n"
      "(a router run arms a fault plan when --chaos-faults > 0; it needs\n"
      " -DPARDFS_ENABLE_CHAOS=ON to actually inject)\n",
      argv0);
}

bool parse_arg(std::string_view arg, CliOptions& cli) {
  const auto value_of = [&](std::string_view key,
                            std::string_view& out) -> bool {
    if (arg.size() > key.size() && arg.substr(0, key.size()) == key &&
        arg[key.size()] == '=') {
      out = arg.substr(key.size() + 1);
      return true;
    }
    return false;
  };
  FuzzOptions& f = cli.fuzz;
  std::string_view v;
  if (value_of("--seed", v)) return parse_number<std::uint64_t>(v, f.seed, 0);
  if (value_of("--scenario", v)) {
    return pardfs::testing::parse_family(v, f.family);
  }
  if (value_of("--entry", v)) {
    cli.entry = v;
    return !v.empty();
  }
  if (value_of("--n", v)) return parse_number<pardfs::Vertex>(v, f.n, 1);
  if (value_of("--batches", v)) return parse_number(v, f.batches, 1);
  if (value_of("--max-batch", v)) return parse_number(v, f.max_batch, 1);
  if (value_of("--threads", v)) return parse_number(v, f.num_threads, 0);
  if (value_of("--shards", v)) return parse_number(v, f.num_shards, 1);
  if (value_of("--corrupt-at", v)) return parse_number(v, f.corrupt_at, -1);
  if (value_of("--chaos-seed", v)) {
    return parse_number<std::uint64_t>(v, f.chaos_seed, 0);
  }
  if (value_of("--chaos-faults", v)) return parse_number(v, f.chaos_faults, 0);
  if (value_of("--soak", v)) return parse_number(v, cli.soak_seeds, 1);
  if (value_of("--minutes", v)) {
    // At most a year, so the deadline arithmetic stays in range.
    return parse_number(v, cli.minutes, 0.0) && cli.minutes > 0.0 &&
           cli.minutes <= 525600.0;
  }
  if (arg == "--force-scalar") {
    f.force_scalar = true;
    return true;
  }
  return false;
}

int report(const FuzzResult& r) {
  if (r.ok) {
    std::printf(
        "OK: %llu batches (%llu with a vertex insert), %llu updates, "
        "%llu queries, %llu faults fired, 0 mismatches\n",
        static_cast<unsigned long long>(r.batches),
        static_cast<unsigned long long>(r.insert_batches),
        static_cast<unsigned long long>(r.updates),
        static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.faults_injected));
    return 0;
  }
  std::fprintf(stderr, "FUZZ FAILURE: %s\n", r.failure.c_str());
  std::fprintf(stderr, "replay: %s\n", r.replay.c_str());
  if (!r.obs_counters.empty()) {
    // Registry snapshot at failure time: replaying the seed in a fresh
    // process must land on the same counts (divergence = bad replay).
    std::fprintf(stderr, "obs:    %s\n", r.obs_counters.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    if (!parse_arg(argv[i], cli)) {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (!cli.entry.empty() &&
      !pardfs::testing::parse_entry(cli.entry, cli.fuzz)) {
    std::fprintf(stderr, "bad argument: --entry=%.*s\n",
                 static_cast<int>(cli.entry.size()), cli.entry.data());
    usage(argv[0]);
    return 2;
  }
  // Reflect an ambient PARDFS_FORCE_SCALAR pin in the printed run lines so
  // they replay the effective dispatch mode.
  cli.fuzz.force_scalar = cli.fuzz.force_scalar || pardfs::simd::scalar_forced();

  if (cli.minutes > 0.0) {
    // Time-budgeted soak: sweep the full matrix with fresh seeds until the
    // budget is spent. Each sweep is itself deterministic per seed base, so
    // any failure still replays exactly.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<std::int64_t>(cli.minutes * 60e3));
    FuzzResult total;
    std::uint64_t seed_base = cli.fuzz.seed;
    do {
      const FuzzResult r = pardfs::testing::run_soak(
          seed_base, /*seeds=*/1, cli.fuzz.batches, cli.fuzz.n,
          cli.fuzz.num_threads, cli.fuzz.force_scalar);
      if (!r.ok) return report(r);
      total.batches += r.batches;
      total.insert_batches += r.insert_batches;
      total.updates += r.updates;
      total.queries += r.queries;
      total.faults_injected += r.faults_injected;
      ++seed_base;
    } while (std::chrono::steady_clock::now() < deadline);
    std::printf("soak: %llu seeds swept\n",
                static_cast<unsigned long long>(seed_base - cli.fuzz.seed));
    return report(total);
  }

  if (cli.soak_seeds > 0) {
    return report(pardfs::testing::run_soak(
        cli.fuzz.seed, cli.soak_seeds, cli.fuzz.batches, cli.fuzz.n,
        cli.fuzz.num_threads, cli.fuzz.force_scalar));
  }

  std::printf("run: %s\n", pardfs::testing::replay_line(cli.fuzz).c_str());
  return report(pardfs::testing::run_fuzz(cli.fuzz));
}
