// Thin PRAM-style facade over OpenMP.
//
// The algorithm code reads as the paper's PRAM pseudo-code: `parallel_for_t`
// assigns one logical processor per element, `parallel_reduce` is an
// O(log n)-depth tree reduction, and `parallel_for_workers` fans a round of
// coarse tasks (e.g. rerooting component steps) over a fixed worker team,
// exposing the worker id for per-worker scratch. Results are deterministic
// and independent of the physical thread count (reductions use a
// user-supplied associative, total-order combiner applied over a fixed
// blocking; worker loops write per-task slots merged in task order).
//
// Grain control: spawning OpenMP teams for tiny loops costs more than the
// loop body; below `kSerialGrain` elements the facade runs serially. This
// changes nothing observable (the cost model counts logical rounds, not
// threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

// TSan cannot see libgomp's futex-based fork/join barrier, so every read
// after an omp region looks racy against the workers' writes. Under
// -fsanitize=thread the worker fan-out therefore runs on std::threads,
// whose create/join edges TSan understands; real races between worker
// bodies stay fully visible.
#if defined(__SANITIZE_THREAD__)
#define PARDFS_PRAM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARDFS_PRAM_TSAN 1
#endif
#endif

#if defined(PARDFS_PRAM_TSAN)
#include <atomic>
#include <thread>
#endif

namespace pardfs::pram {

inline constexpr std::size_t kSerialGrain = 2048;

// Number of worker threads every facade loop uses (defaults to OpenMP's
// choice); set_num_threads(0) restores the default.
int num_threads();
void set_num_threads(int n);

// for (i in [begin, end)) body(i), one logical processor per index. Body is
// a template parameter (not std::function) so hot loops inline fully.
template <typename Body>
void parallel_for_t(std::size_t begin, std::size_t end, Body&& body) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  const int threads = count < kSerialGrain ? 1 : num_threads();
  if (threads <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::int64_t i = static_cast<std::int64_t>(begin);
       i < static_cast<std::int64_t>(end); ++i) {
    body(static_cast<std::size_t>(i));
  }
}

// for (i in [0, count)) body(worker, i), where worker < threads identifies
// the executing worker so callers can keep per-worker scratch (sized to
// `threads`; 0 = num_threads()). Unlike parallel_for_t there is no
// serial-grain cutoff: each task is assumed substantial (e.g. one whole
// rerooting component step), and tasks are claimed dynamically for load
// balance. Callers must produce results that are independent of which
// worker runs which task (write into per-task slots, merge per-worker
// accumulators with commutative ops).
template <typename Body>
void parallel_for_workers(std::size_t count, int threads, Body&& body) {
  if (count == 0) return;
  if (threads <= 0) threads = num_threads();
#if defined(PARDFS_PRAM_TSAN)
  if (threads > 1 && count > 1) {
    const int team =
        threads < static_cast<int>(count) ? threads : static_cast<int>(count);
    std::atomic<std::size_t> cursor{0};
    const auto drain = [&](int worker) {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        body(worker, i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(team - 1));
    for (int w = 1; w < team; ++w) pool.emplace_back(drain, w);
    drain(0);  // the calling thread is worker 0, as in the OpenMP path
    for (std::thread& t : pool) t.join();
    return;
  }
#elif defined(_OPENMP)
  if (threads > 1 && count > 1) {
    const int team =
        threads < static_cast<int>(count) ? threads : static_cast<int>(count);
#pragma omp parallel num_threads(team)
    {
      const int worker = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(count); ++i) {
        body(worker, static_cast<std::size_t>(i));
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) body(0, i);
}

// Tree reduction: combine(identity, f(begin), ..., f(end-1)). `combine` must
// be associative; evaluation order is a fixed left-to-right blocking so the
// result is deterministic for non-commutative combiners too.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, Map&& map,
                  Combine&& combine) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return identity;
  if (count < kSerialGrain) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = combine(acc, map(i));
    return acc;
  }
  const int threads = num_threads();
  std::vector<T> partial(static_cast<std::size_t>(threads), identity);
  const std::size_t block = (count + threads - 1) / threads;
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static)
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = begin + static_cast<std::size_t>(t) * block;
      const std::size_t hi = lo + block < end ? lo + block : end;
      T acc = identity;
      for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
      partial[static_cast<std::size_t>(t)] = acc;
    }
  }
  T acc = identity;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace pardfs::pram
