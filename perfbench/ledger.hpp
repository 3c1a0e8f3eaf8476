// The traced half of the benchmark: replays the batches a live run actually
// formed through DynamicDfs::apply_batch and UpdateJournal, and times the
// layers' isolated builds on the workload's start and end states. Every
// number comes from timing a public call from outside the library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/reduction.hpp"
#include "graph/graph.hpp"
#include "live.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Batch {
  std::vector<pardfs::GraphUpdate> ops;
  std::int32_t shard = 0;      // shard_of(first update's u) at submit
  std::uint64_t version = 0;   // the version its acks carried
  bool alone = false;          // a barrier (cross-block insert)
  bool timed = false;
};

// Updates acked with the same (shard, version) formed one batch; batches are
// ordered by their first update's stream position. Cross-block inserts
// (barriers) are always a batch of their own.
std::vector<Batch> recover_batches(const Workload& w, const Stream& st, const LiveResult& live);

// The batches replayed per shard, the way the router runs them: one
// DynamicDfs and one UpdateJournal per shard, seeded from the router's
// initial partition, each holding only the components that shard owns.
// A barrier whose endpoints live on two shards replays the merge protocol
// (extract_component on the smaller side, adopt_component on the larger,
// both journaled, then the insert on the winner).
struct ReplayResult {
  std::vector<double> apply_us;       // timed batches
  std::vector<double> record_us;      // timed batches
  std::vector<double> checkpoint_us;  // every checkpoint, incl. the final ones
  std::size_t policy_checkpoints = 0; // at ServiceConfig's checkpoint policy
  // Max over writers of Σ (apply_batch + component migration), timed
  // batches; a merge is charged to its gateway, the lower endpoint shard,
  // whose writer runs it.
  double busiest_writer_s = 0.0;
  double migrate_s = 0.0;             // Σ extract + adopt, timed merges
  std::size_t migrations = 0;         // timed merges
  // Batches whose replayed (shard, version) is not the one the live run
  // acked: non-zero means the recovered batches or partition are wrong.
  // The replay stops at the first batch the live router sent to another
  // shard.
  std::size_t route_mismatches = 0;
  std::size_t timed_batches = 0;
  std::size_t timed_updates = 0;
  std::size_t structural = 0;
  std::size_t index_rebuilds = 0;
  std::size_t base_rebuilds = 0;
  std::uint64_t reroot_rounds = 0;
  std::uint64_t vertices_traversed = 0;
  std::vector<pardfs::Vertex> parent;  // assembled forest after the last batch
};

ReplayResult replay_batches(const Workload& w, const Stream& st,
                            const std::vector<Batch>& batches);

// Isolated layer builds on one (graph, forest) state; medians of repeats.
struct BuildTimes {
  double oracle_build_us = 0.0;
  double oracle_heap_mb = 0.0;
  double probe_ns = 0.0;
  double index_build_us = 0.0;         // TreeBuildMode::kAuto
  double index_build_serial_us = 0.0;  // TreeBuildMode::kSerial
  double index_heap_mb = 0.0;
  double list_rank_us = 0.0;
  std::size_t list_length = 0;
  double find_cuts_us = 0.0;
  double static_dfs_us = 0.0;
};

BuildTimes time_builds(const pardfs::Graph& g, std::span<const pardfs::Vertex> parent,
                       std::uint64_t seed);

// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
