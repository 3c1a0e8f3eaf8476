// Thin PRAM-style facade over the process's worker pool.
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
// All three run their teams through detail::run_team on one process-wide
// pool of budget - 1 persistent threads (budget = OMP_NUM_THREADS, else the
// hardware concurrency). A team is a set of slots, not of threads: the
// caller claims slots like a worker, and a region that finds the pool busy
// (another thread's region, or one nested in a slot) runs every slot inline,
// so teams never oversubscribe the budget or nest.
//
// Grain control: waking the pool for tiny loops costs more than the loop
// body; below `kSerialGrain` elements the facade runs serially. This changes
// nothing observable (the cost model counts logical rounds, not threads).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pardfs::pram {

inline constexpr std::size_t kSerialGrain = 2048;

// Number of slots every facade team uses (defaults to the worker budget);
// set_num_threads(0) restores the default.
int num_threads();
void set_num_threads(int n);

namespace detail {
// The worker budget an OMP_NUM_THREADS value asks for: a positive int,
// optionally followed by a ','-list (the nested form "4,2"; the first level
// counts). Anything else, unset included, gives the hardware concurrency.
int thread_budget(const char* env);

// slot(region, t) once for every t < team, returning when all have finished.
// Which thread runs which slot is unspecified; an exception escaping a slot
// that ran on the pool terminates the process.
void run_team(int team, void (*slot)(const void*, int), const void* region);
template <typename Region>
void run_team(int team, const Region& region) {
  run_team(
      team, [](const void* r, int t) { (*static_cast<const Region*>(r))(t); },
      &region);
}
}  // namespace detail

// for (i in [begin, end)) body(i), one logical processor per index. Body is
// a template parameter (not std::function) so hot loops inline fully.
template <typename Body>
void parallel_for_t(std::size_t begin, std::size_t end, Body&& body) {
  const std::size_t count = end > begin ? end - begin : 0;
  const int threads = count < kSerialGrain ? 1 : num_threads();
  if (threads <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t block = (count + threads - 1) / threads;
  detail::run_team(threads, [&](int t) {
    const std::size_t lo = begin + static_cast<std::size_t>(t) * block;
    const std::size_t hi = lo + block < end ? lo + block : end;
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
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
  if (threads <= 0) threads = num_threads();
  const int team =
      count < static_cast<std::size_t>(threads) ? static_cast<int>(count) : threads;
  if (team <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  detail::run_team(team, [&](int worker) {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      body(worker, i);
    }
  });
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
  const auto reduce_block = [&](int t) {
    const std::size_t lo = begin + static_cast<std::size_t>(t) * block;
    const std::size_t hi = lo + block < end ? lo + block : end;
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, map(i));
    partial[static_cast<std::size_t>(t)] = acc;
  };
  detail::run_team(threads, reduce_block);
  T acc = identity;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace pardfs::pram
