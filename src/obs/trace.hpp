// Phase-span tracer + the repo's single scoped-timing primitive.
//
//   * now_ns() / Stopwatch — monotonic wall-clock reading (replaces the old
//     util/timer.hpp and the PhaseTimer scope guard that core carried);
//   * Span — RAII scoped span. When tracing is enabled (set_tracing_enabled,
//     default OFF) the span's (name, start, duration, thread) is pushed into
//     a fixed-size per-thread ring buffer on destruction; chrome_trace_json()
//     renders every ring as chrome://tracing "X" events. When tracing is off
//     the constructor is one relaxed load and nothing else.
//   * ScopedPhase — Span + histogram record in one guard: times its scope
//     and records the duration (ns) into an obs::Histogram. This is what
//     instruments the writer pipeline (queue_wait → patch → reroot →
//     index_rebuild → rebase → publish) and the engine's per-round spans.
//
// Rings are pooled, not thread_local-owned: writer, reader and test threads
// come and go (a watchdog restart spawns a fresh writer), and one ring per
// short-lived thread would grow without bound. A thread leases a
// ring from a fixed pool on first push and returns it at thread exit;
// events carry their thread id, so lease reuse never mixes attribution.
// Event fields are relaxed atomics — concurrent dump while writers run is
// TSAN-clean (an in-flight slot may render garbled, never invoke UB); dump
// at quiescence (after joins) is exact.
//
// PARDFS_NO_METRICS compiles Span/ScopedPhase/Stopwatch clock reads and ring
// pushes to nothing; chrome_trace_json() still returns a valid (empty) page.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace pardfs::obs {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Small sequential id per OS thread (first use wins; never reused).
std::uint32_t thread_id();

// Monotonic stopwatch for call sites that want a duration, not a metric.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const { return now_ns() - start_; }
  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
// Push one completed span into the calling thread's leased ring.
void trace_push(const char* name, std::uint64_t start_ns,
                std::uint64_t dur_ns);
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on);

// RAII span. `name` must be a string with static storage duration (string
// literals at every call site) — rings store the pointer, not a copy.
class Span {
 public:
  explicit Span(const char* name) {
#if !defined(PARDFS_NO_METRICS)
    if (tracing_enabled()) {
      name_ = name;
      start_ns_ = now_ns();
    }
#else
    (void)name;
#endif
  }
  ~Span() {
#if !defined(PARDFS_NO_METRICS)
    if (name_ != nullptr) {
      detail::trace_push(name_, start_ns_, now_ns() - start_ns_);
    }
#endif
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#if !defined(PARDFS_NO_METRICS)
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
#endif
};

// Span + histogram in one guard: the scope's duration lands in `hist` (raw
// nanoseconds) and, if tracing is on, in the trace ring under `name`.
class ScopedPhase {
 public:
  ScopedPhase(Histogram& hist, const char* name)
#if !defined(PARDFS_NO_METRICS)
      : hist_(&hist), span_(name), start_ns_(now_ns()) {
  }
#else
  {
    (void)hist;
    (void)name;
  }
#endif
  ~ScopedPhase() {
#if !defined(PARDFS_NO_METRICS)
    hist_->record(now_ns() - start_ns_);
#endif
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
#if !defined(PARDFS_NO_METRICS)
  Histogram* hist_;
  Span span_;
  std::uint64_t start_ns_;
#endif
};

// All recorded spans from every ring as a chrome://tracing JSON document
// ({"traceEvents": [...]}, ph:"X", ts/dur in microseconds). Load it at
// chrome://tracing or https://ui.perfetto.dev.
std::string chrome_trace_json();

// Drop every recorded span (rings keep their leases).
void trace_reset();

}  // namespace pardfs::obs
