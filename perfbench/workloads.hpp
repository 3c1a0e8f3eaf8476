// The benchmark's three workloads, generated in full from a seed before any
// timing starts: the initial graph, every update of the stream, and the
// mirror graph the stream leaves behind. The same (workload, seed, seconds)
// always yields the same bytes, so two commits replay identical work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/reduction.hpp"
#include "graph/graph.hpp"
#include "service/shard_router.hpp"

namespace perfbench {

// One replay's inputs: an initial graph and its update stream.
struct Stream {
  pardfs::Graph initial;
  // Warm-up prefix (acked before the timed window opens) + timed updates.
  std::vector<pardfs::GraphUpdate> updates;
  // 1 = cross-block insert: submitted alone, with every earlier ticket acked
  // before it and it acked before anything later is submitted, so the merge
  // it triggers never races a routed op and no delete overtakes its insert.
  std::vector<std::uint8_t> barrier;
  pardfs::Graph final_graph;  // mirror after every update
};

struct Workload {
  std::string name;
  pardfs::service::ServiceConfig config;  // defaults, plus shards / serve_cuts
  // One reader on every workload. Two busy-looping readers on sharded_reads
  // answered fewer queries than one (they contend inside the read path) and,
  // beside four writers and the producer, left the writers waiting for a CPU:
  // ten-seed spreads of update_tput and ack_p99_us went past their bounds.
  int readers = 1;
  // Closed loop: update i is submitted only after the ticket of update
  // i - window has been waited on, so at most `window` are in flight. 64
  // keeps a 1-shard writer's queue above the default coalescing cap (the
  // epoch period, 14-15 here), so batches are always full: a replay's work
  // does not follow the host's timing, and each ack waits on several
  // batches, so a replay's p99 is not just its one or two slowest batches.
  std::size_t window = 64;
  std::size_t warmup = 0;
  std::size_t stream_length = 0;  // warm-up + timed updates of one stream
  // One stream per replay, each from its own seed drawn from --seed, each
  // replayed on a fresh router; rates are medians over replays, so a run's
  // figures rest on several inputs rather than one.
  std::vector<std::uint64_t> stream_seeds;
};

inline constexpr const char* kWorkloadNames[] = {"social_churn", "sharded_reads",
                                                 "map_churn"};

bool is_workload(const std::string& name);

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds);

// The inputs of replay `rep`. Made just before that replay (never inside its
// timed window), so only one stream's graphs are resident at a time and the
// peak RSS is the service's, not the benchmark's input store.
Stream make_stream(const Workload& w, std::size_t rep);

}  // namespace perfbench
