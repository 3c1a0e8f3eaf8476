#include "testing/chaos.hpp"

#include <mutex>

#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace pardfs::chaos {

const char* point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kWriterCrashMidBatch: return "writer_crash_mid_batch";
    case FaultPoint::kBatchStallMs: return "batch_stall_ms";
    case FaultPoint::kMergeAbort: return "merge_abort";
    case FaultPoint::kQueueFull: return "queue_full";
    case FaultPoint::kIndexRebuildThrow: return "index_rebuild_throw";
  }
  return "unknown";
}

FaultPlan FaultPlan::random(std::uint64_t seed, int faults,
                            std::uint32_t horizon) {
  // Same derivation style as the fuzz harness: decorrelate the plan from the
  // graph/stream rngs that share the seed.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  // Weighted toward the recoverable-crash points — those exercise the full
  // journal-replay path; stalls and sheds are flavor, not the main course.
  static constexpr FaultPoint kPool[] = {
      FaultPoint::kWriterCrashMidBatch, FaultPoint::kWriterCrashMidBatch,
      FaultPoint::kIndexRebuildThrow,   FaultPoint::kIndexRebuildThrow,
      FaultPoint::kMergeAbort,          FaultPoint::kBatchStallMs,
      FaultPoint::kQueueFull,
  };
  FaultPlan plan;
  plan.specs.reserve(faults < 0 ? 0 : static_cast<std::size_t>(faults));
  for (int i = 0; i < faults; ++i) {
    FaultSpec spec;
    spec.point = kPool[rng.below(std::size(kPool))];
    spec.at_hit = horizon == 0 ? 0 : static_cast<std::uint32_t>(rng.below(horizon));
    if (spec.point == FaultPoint::kBatchStallMs) {
      spec.param = 1 + static_cast<std::uint32_t>(rng.below(8));
    }
    plan.specs.push_back(spec);
  }
  return plan;
}

#if defined(PARDFS_ENABLE_CHAOS)

namespace {

// pardfs_faults_injected_total{point="…"} — one series per failure point,
// registered eagerly at arm() so a soak log shows zeros, not absences.
obs::Counter& injected_counter(FaultPoint p) {
  static obs::Counter* counters[kNumFaultPoints] = {};
  const auto i = static_cast<std::size_t>(p);
  if (counters[i] == nullptr) {
    std::string labels = "point=\"";
    labels += point_name(p);
    labels += "\"";
    counters[i] = &obs::Registry::global().counter(
        "pardfs_faults_injected_total", labels);
  }
  return *counters[i];
}

struct ArmedSpec {
  FaultSpec spec;
  std::uint32_t remaining = 0;  // matching consultations left before firing
  bool fired = false;
};

struct PlanState {
  std::mutex mu;
  bool armed = false;
  std::vector<ArmedSpec> specs;
  std::uint64_t injected = 0;
};

PlanState& state() {
  static PlanState s;
  return s;
}

FaultAction action_for(const FaultSpec& spec) {
  FaultAction a;
  switch (spec.point) {
    case FaultPoint::kWriterCrashMidBatch:
    case FaultPoint::kMergeAbort:
      a.kind = FaultAction::Kind::kCrash;
      break;
    case FaultPoint::kBatchStallMs:
      a.kind = FaultAction::Kind::kStall;
      a.param = spec.param;
      break;
    case FaultPoint::kQueueFull:
      a.kind = FaultAction::Kind::kShed;
      break;
    case FaultPoint::kIndexRebuildThrow:
      a.kind = FaultAction::Kind::kThrow;
      break;
  }
  return a;
}

}  // namespace

void arm(FaultPlan plan) {
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    injected_counter(static_cast<FaultPoint>(i));
  }
  PlanState& s = state();
  std::lock_guard lock(s.mu);
  s.specs.clear();
  s.specs.reserve(plan.specs.size());
  for (const FaultSpec& spec : plan.specs) {
    s.specs.push_back({spec, spec.at_hit, false});
  }
  s.armed = true;
  s.injected = 0;
}

void disarm() {
  PlanState& s = state();
  std::lock_guard lock(s.mu);
  s.armed = false;
  s.specs.clear();
}

bool armed() {
  PlanState& s = state();
  std::lock_guard lock(s.mu);
  return s.armed;
}

FaultAction hit(FaultPoint point, std::size_t shard) {
  PlanState& s = state();
  std::lock_guard lock(s.mu);
  if (!s.armed) return {};
  for (ArmedSpec& armed_spec : s.specs) {
    const FaultSpec& spec = armed_spec.spec;
    if (armed_spec.fired || spec.point != point) continue;
    if (spec.shard >= 0 &&
        spec.shard != static_cast<std::int32_t>(shard)) {
      continue;
    }
    if (armed_spec.remaining > 0) {
      --armed_spec.remaining;
      continue;
    }
    armed_spec.fired = true;
    ++s.injected;
    injected_counter(point).add();
    return action_for(spec);
  }
  return {};
}

std::uint64_t faults_injected() {
  PlanState& s = state();
  std::lock_guard lock(s.mu);
  return s.injected;
}

#endif  // PARDFS_ENABLE_CHAOS

}  // namespace pardfs::chaos
