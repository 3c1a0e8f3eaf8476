// Deterministic fault injection for the serving stack (DESIGN.md §13).
//
// A seeded FaultPlan names failure points inside the service write path —
// writer crash mid-batch, a stalled batch, an aborted merge, a full queue, a
// throwing index rebuild — and schedules when each fires: the k-th time its
// hook site is consulted for a given shard. The plan is armed process-wide;
// hook sites (ShardRouter's writer/merge paths, UpdateQueue::submit) consult
// `hit()` and act on the returned FaultAction. Per-router scoping happens at
// the call sites: only routers constructed with ServiceConfig::enable_chaos
// consult the plan at all, so the un-faulted reference stack of a
// differential fuzz run shares the process without tripping faults.
//
// Twin of the PARDFS_NO_METRICS pattern: unless the build defines
// PARDFS_ENABLE_CHAOS (cmake -DPARDFS_ENABLE_CHAOS=ON), every hook collapses
// to an inline no-op returning FaultAction::kNone and the optimizer deletes
// the call sites — production binaries carry zero chaos overhead and cannot
// be made to inject faults (pinned by tests/test_chaos.cpp). FaultPlan
// construction and InjectedCrash stay available either way so tests and the
// fuzz harness compile identically.
//
// Everything is deterministic per seed: same plan + same serialized update
// stream => same faults at the same points, which is what makes a faulted
// fuzz failure replayable (`pardfs_fuzz --entry=router --shards=… --chaos-seed=…
// --chaos-faults=…`; the old `--entry=chaos` form still parses).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pardfs::chaos {

enum class FaultPoint : std::uint8_t {
  kWriterCrashMidBatch,  // after the WAL records the batch, before apply
  kBatchStallMs,         // writer sleeps `param` ms before applying a batch
  kMergeAbort,           // mid merge protocol, after component migration
  kQueueFull,            // submit-side shed: the ticket acks kOverloaded
  kIndexRebuildThrow,    // after apply_batch, before the snapshot publishes
};
inline constexpr std::size_t kNumFaultPoints = 5;

// "writer_crash_mid_batch", "batch_stall_ms", "merge_abort", "queue_full",
// "index_rebuild_throw" — the names the metrics label and the CLI use.
const char* point_name(FaultPoint p);

// What an armed plan tells a hook site to do right now.
struct FaultAction {
  enum class Kind : std::uint8_t { kNone, kCrash, kStall, kShed, kThrow };
  Kind kind = Kind::kNone;
  std::uint32_t param = 0;  // stall duration in milliseconds
};

// Thrown by hook sites ordered to crash (and by the
// ShardRouter::inject_writer_failure ops hook). The supervision layer treats
// it exactly like an InvariantViolation escaping the writer: shard poisoned,
// journal-replay recovery. Defined unconditionally so call sites compile
// with chaos on or off.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(std::string what)
      : std::runtime_error(std::move(what)) {}
};

// One scheduled fault: fires the `at_hit`-th time (0-based) a matching hook
// site is consulted, then never again (one-shot).
struct FaultSpec {
  FaultPoint point = FaultPoint::kWriterCrashMidBatch;
  std::int32_t shard = -1;   // -1 = any shard matches
  std::uint32_t at_hit = 0;  // matching consultations to skip before firing
  std::uint32_t param = 0;   // kBatchStallMs: stall milliseconds
};

struct FaultPlan {
  std::vector<FaultSpec> specs;

  // A deterministic schedule of `faults` one-shot specs that match any
  // shard: crash/stall/merge-abort/rebuild-throw points with fire positions
  // in [0, horizon) consultations. Same seed => same plan. Specs whose point
  // is never consulted (e.g. merge_abort in a merge-free run) simply never
  // fire — a schedule is pressure, not a guarantee.
  static FaultPlan random(std::uint64_t seed, int faults, std::uint32_t horizon);
};

#if defined(PARDFS_ENABLE_CHAOS)

// Installs `plan` as the process-wide schedule (resets all hit counters and
// the injected-fault count). disarm() removes it; hit() with no armed plan
// returns kNone.
void arm(FaultPlan plan);
void disarm();
bool armed();

// Consult the plan at a hook site. Counts one consultation for every armed
// spec matching (point, shard) and returns the action of the first spec
// whose position is reached (marking it fired), kNone otherwise.
FaultAction hit(FaultPoint point, std::size_t shard);

// Faults fired since the last arm(). Always 0 when chaos is compiled out.
std::uint64_t faults_injected();

#else

inline void arm(FaultPlan) {}
inline void disarm() {}
inline bool armed() { return false; }
inline FaultAction hit(FaultPoint, std::size_t) { return {}; }
inline std::uint64_t faults_injected() { return 0; }

#endif  // PARDFS_ENABLE_CHAOS

}  // namespace pardfs::chaos
