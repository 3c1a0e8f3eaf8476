// Process-wide metrics registry — the unified observability substrate
// (DESIGN.md §11). Three metric kinds:
//
//   * Counter   — monotone event count; hot path is one relaxed atomic add
//                 into a per-thread shard, merged on read;
//   * Gauge     — last-writer-wins instantaneous value (queue depth,
//                 coalesce size);
//   * Histogram — log2-bucketed latency distribution with per-shard
//                 count/sum/max, exposing p50/p90/p99/max on read. Values
//                 are recorded raw (nanoseconds in this repo) and scaled at
//                 snapshot time (`scale`, e.g. 1e-3 for a *_us metric), so
//                 sub-microsecond phases lose no precision to bucketing.
//
// Identity is (name, labels) where `labels` is a pre-formatted Prometheus
// inner label list (`phase="patch"`). Registration takes a mutex once; the
// returned reference is stable for the process lifetime (metrics are never
// removed — reset() zeroes values but keeps objects), so call sites cache
// it and the steady state touches no lock.
//
// Determinism: nothing here feeds back into the algorithms — the maintained
// forest and every RerootStats counter are byte-identical with metrics
// enabled, disabled at runtime (set_metrics_enabled), or compiled out.
//
// PARDFS_NO_METRICS compiles the recording hot paths (and their clock
// reads) down to nothing while keeping the full API and registration, so
// callers need no #ifdefs and exporters still emit a well-formed page, zero
// in every registry series (rows a caller passes to the exporters, such as a
// router's event counts, keep counting). TSAN-clean by construction: shards
// are plain relaxed atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pardfs::obs {

// Runtime kill-switch (default on). Readers/exporters ignore it; only the
// recording paths check it, with one relaxed load.
namespace detail {
inline std::atomic<bool> g_metrics_enabled{true};

// Threads hash onto one of kShards cache-line-padded slots. Collisions only
// share a contention domain, never lose counts.
inline constexpr std::size_t kShards = 8;

inline std::size_t shard_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id & (kShards - 1);
}
}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// Log2 bucketing: bucket 0 holds the value 0, bucket i >= 1 holds
// [2^(i-1), 2^i). 48 buckets cover raw values up to 2^47 ns (~39 hours).
inline constexpr std::size_t kHistogramBuckets = 48;

inline std::size_t bucket_of(std::uint64_t raw) {
  if (raw == 0) return 0;
  const std::size_t width =
      64 - static_cast<std::size_t>(__builtin_clzll(raw));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
#if !defined(PARDFS_NO_METRICS)
    if (!metrics_enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(delta,
                                               std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  const std::string& name() const { return name_; }
  const std::string& labels() const { return labels_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string labels)
      : name_(std::move(name)), labels_(std::move(labels)) {}
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, detail::kShards> shards_;
  std::string name_;
  std::string labels_;
};

class Gauge {
 public:
  void set(std::int64_t v) {
#if !defined(PARDFS_NO_METRICS)
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void max_of(std::int64_t v) {
#if !defined(PARDFS_NO_METRICS)
    if (!metrics_enabled()) return;
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& labels() const { return labels_; }

 private:
  friend class Registry;
  Gauge(std::string name, std::string labels)
      : name_(std::move(name)), labels_(std::move(labels)) {}
  void reset() { v_.store(0, std::memory_order_relaxed); }

  std::atomic<std::int64_t> v_{0};
  std::string name_;
  std::string labels_;
};

// Merged (all shards summed) view of one histogram at one instant, with the
// metric's display scale already applied to sum/max/quantiles/bounds.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  double scale = 1.0;

  // Scaled estimate of the q-quantile (q in [0, 1]): rank-interpolated
  // inside its log bucket, clamped by the observed maximum — always within
  // one log2 bucket of the exact order statistic.
  double quantile(double q) const;
  // Scaled exclusive upper bound of bucket i (the Prometheus `le` value).
  double bucket_upper(std::size_t i) const;
};

class Histogram {
 public:
  // `raw` is in the metric's recording unit (nanoseconds throughout this
  // repo); display values are raw * scale().
  void record(std::uint64_t raw) {
#if !defined(PARDFS_NO_METRICS)
    if (!metrics_enabled()) return;
    Shard& s = shards_[detail::shard_index()];
    s.buckets[bucket_of(raw)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(raw, std::memory_order_relaxed);
    std::uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (raw > cur && !s.max.compare_exchange_weak(
                            cur, raw, std::memory_order_relaxed)) {
    }
#else
    (void)raw;
#endif
  }

  HistogramSnapshot snapshot() const;
  // Cheap accessors for hot readers (phase_breakdown() runs inside timed
  // bench loops): shard sums only, no bucket merge or quantile math.
  std::uint64_t count() const;
  double sum() const;  // scaled
  double scale() const { return scale_; }
  const std::string& name() const { return name_; }
  const std::string& labels() const { return labels_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string labels, double scale)
      : scale_(scale), name_(std::move(name)), labels_(std::move(labels)) {}
  void reset();

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Shard, detail::kShards> shards_;
  double scale_;
  std::string name_;
  std::string labels_;
};

// `labels` with shard="<shard>" appended; unchanged when `shard` is empty,
// which names the unlabeled series of an unsharded engine or a 1-shard
// router.
std::string shard_labels(std::string labels, std::string_view shard);

class Registry {
 public:
  // The process-wide registry. Intentionally leaked: worker and writer
  // threads may record during static destruction.
  static Registry& global();

  // Find-or-create. The reference is stable forever; a metric re-requested
  // with the same (name, labels) is the same object. Requesting an existing
  // name with a different kind aborts (naming bug, not a runtime state).
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {},
                       double scale = 1.0);

  // Export-side iteration: pointers sorted by (name, labels) so exposition
  // output is deterministic. The pointers never dangle (metrics are never
  // destroyed while the process lives).
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

  // Zero every value, keeping all registered objects (and therefore every
  // cached reference) valid. Benchmarks use this to scope a measurement;
  // concurrent adds during a reset may land on either side of it.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pardfs::obs
