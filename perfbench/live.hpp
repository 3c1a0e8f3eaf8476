// One live service run: cold ShardRouter constructions (set-up), then the
// workload's stream replayed by one closed-loop producer while reader
// threads run the library's canonical client read session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/shard_router.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LiveOptions {
  std::uint64_t seed = 1;
  // Cold ShardRouter constructions at least, spread evenly over the
  // streams (Workload::stream_seeds); setup_s is their median. The last
  // construction of each stream serves that stream.
  int setups = 1;
  // First stream to replay: the traced pass replays only the later ones.
  std::size_t first_stream = 0;
  // Traced pass: also time every ShardRouter::capacity() a reader makes
  // before a session, sample queue_depth() at each submit, and time a
  // quiescent read loop after stop().
  bool traced = false;
};

struct LiveResult {
  std::vector<double> setup_s;  // one per cold construction
  // Per replay: wall time from the first timed submit to the last timed ack,
  // and accepted timed updates / run_read_session queries per second of it.
  std::vector<double> rep_wall_s;
  std::vector<double> rep_update_tput;
  std::vector<double> rep_read_qps;
  std::vector<double> rep_ack_p50_us;  // each replay's own median
  std::vector<double> rep_ack_p99_us;  // each replay's own p99
  std::vector<double> ack_us;  // timed updates of every replay, settle order
  std::uint64_t updates_submitted = 0;

  // Last replay (last stream): which batch each update landed in — (shard it was routed
  // to, version its ack carried; 0 for a status ack) — its stats and forest.
  std::vector<std::int32_t> shard;
  std::vector<std::uint64_t> version;
  pardfs::service::ServiceStats stats;
  std::vector<pardfs::Vertex> forest;  // assemble_parent() after stop()

  // Failures over every replay: acks that are not a version, sampled read
  // answers that break a snapshot invariant, the forest checks after stop().
  std::uint64_t status_acks = 0;
  std::uint64_t read_checks = 0;
  std::uint64_t read_check_failures = 0;
  bool forest_ok = true;
  std::string forest_reason = "ok";

  // Per replay: the process's peak RSS during that replay, MiB. The peak
  // mark is reset before each replay where the kernel allows it
  // (rss_per_replay); otherwise each entry is the peak of the run so far.
  std::vector<double> rep_rss_mb;
  bool rss_per_replay = false;
  // Share of all CPU time the hypervisor gave to other guests during the
  // run (/proc/stat steal); 0 where the kernel does not report it.
  double steal_frac = 0.0;

  // Traced pass only.
  double queue_depth_sum = 0.0;  // queue_depth() summed over timed submits
  double capacity_wait_s = 0.0;  // summed over readers and replays
  double reader_wall_s = 0.0;    // summed over readers and replays
  double query_ns = 0.0;
};

LiveResult run_live(const Workload& w, const LiveOptions& opt);

}  // namespace perfbench
