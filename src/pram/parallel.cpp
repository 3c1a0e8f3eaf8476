#include "pram/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace pardfs::pram {

namespace {

std::atomic<int> g_threads{0};  // 0 = the budget

int budget() {
  static const int b = detail::thread_budget(std::getenv("OMP_NUM_THREADS"));
  return b;
}

// Pause rounds before a worker parks (or the caller sleeps on the last
// slot), about 30 us on a 2.1 GHz Xeon: long enough to span the gap between
// back-to-back regions of one build, short enough not to steal a core from
// another shard's writer for long.
constexpr int kSpin = 1 << 11;

// Returns once `a` no longer holds `old`: spins kSpin pause rounds, then parks.
template <typename T>
void await_change(const std::atomic<T>& a, T old) {
  for (int spin = 0; spin < kSpin; ++spin) {
    if (a.load(std::memory_order_acquire) != old) return;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  a.wait(old, std::memory_order_acquire);
}

// budget - 1 persistent workers, created by the first region. The pool is
// never destroyed (like obs::Registry), so its workers are never joined.
// A region is published as one claim word, generation << 32 | team << 16 |
// next slot. Everyone, the caller included, takes a slot with a CAS on the
// whole word, so a worker that wakes late cannot claim from a finished
// region, and slot_/region_ stay put until every claimed slot has counted
// itself done.
class Pool {
 public:
  explicit Pool(int workers) {
    for (int w = 0; w < workers; ++w) workers_.emplace_back([this] { work(); });
  }

  bool try_run(int team, void (*slot)(const void*, int), const void* region) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    slot_ = slot;
    region_ = region;
    done_.store(0, std::memory_order_relaxed);
    const std::uint64_t gen = (claim_.load(std::memory_order_relaxed) >> 32) + 1;
    claim_.store(gen << 32 | static_cast<std::uint64_t>(team) << 16,
                 std::memory_order_release);
    claim_.notify_all();
    run_slots();
    for (int d; (d = done_.load(std::memory_order_acquire)) != team;) {
      await_change(done_, d);
    }
    busy_.store(false, std::memory_order_release);
    return true;
  }

 private:
  // Claims and runs slots until the published region has none left; returns
  // the exhausted claim word.
  std::uint64_t run_slots() noexcept {
    std::uint64_t c = claim_.load(std::memory_order_acquire);
    for (;;) {
      const int team = static_cast<int>(c >> 16 & 0xFFFF);
      const int t = static_cast<int>(c & 0xFFFF);
      if (t >= team) return c;
      if (!claim_.compare_exchange_weak(c, c + 1, std::memory_order_acquire)) {
        continue;
      }
      slot_(region_, t);
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == team) {
        done_.notify_one();
      }
      c = claim_.load(std::memory_order_acquire);
    }
  }

  [[noreturn]] void work() {
    for (std::uint64_t seen = 0;;) {
      await_change(claim_, seen);
      seen = run_slots();
    }
  }

  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<int> done_{0};
  void (*slot_)(const void*, int) = nullptr;
  const void* region_ = nullptr;
  std::vector<std::thread> workers_;
};

Pool& pool() {
  static Pool* const p = new Pool(budget() - 1);
  return *p;
}

}  // namespace

int num_threads() {
  const int configured = g_threads.load(std::memory_order_relaxed);
  return configured > 0 ? configured : budget();
}

void set_num_threads(int n) { g_threads.store(n, std::memory_order_relaxed); }

namespace detail {

int thread_budget(const char* env) {
  int n = 0;
  if (env != nullptr) {
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec != std::errc{} || (ptr != end && *ptr != ',')) n = 0;
  }
  return n > 0 ? n : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void run_team(int team, void (*slot)(const void*, int), const void* region) {
  if (team > 1 && team <= 0xFFFF && pool().try_run(team, slot, region)) return;
  for (int t = 0; t < team; ++t) slot(region, t);
}

}  // namespace detail

}  // namespace pardfs::pram
