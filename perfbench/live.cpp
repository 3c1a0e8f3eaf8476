#include "live.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "ledger.hpp"
#include "service/workload.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace perfbench {

using pardfs::Rng;
using pardfs::Vertex;
using pardfs::kNullVertex;
using pardfs::service::ShardRouter;
using pardfs::service::UpdateTicket;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSessionQueries = 64;  // queries per run_read_session call
constexpr int kCheckEvery = 16;      // sessions between sampled answer checks

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Snapshot invariants of one sampled read, all against one snapshot so a
// concurrent publish cannot produce a false alarm. Returns false when the
// sample hit a dead or not-yet-published id (not a check).
bool check_one_read(const ShardRouter& router, Rng& rng, bool& ok) {
  const Vertex cap = router.capacity();
  const auto u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(cap)));
  const auto snap = router.view().snapshot_of(u);
  if (snap == nullptr || !snap->contains(u)) return false;
  const Vertex r = snap->root_of(u);
  ok = r != kNullVertex && snap->contains(r) && snap->depth(r) == 0 &&
       snap->parent_of(r) == kNullVertex && snap->same_component(u, r);
  const Vertex p = snap->parent_of(u);
  if (ok && p != kNullVertex) ok = snap->depth(p) + 1 == snap->depth(u);
  return true;
}

struct ReaderTally {
  std::atomic<std::uint64_t> queries{0};  // sampled by the producer
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  double capacity_wait_s = 0.0;
  double wall_s = 0.0;
};

void reader_loop(const ShardRouter& router, std::uint64_t seed, bool traced,
                 const std::atomic<int>& phase, ReaderTally& out) {
  Rng rng(seed);
  Rng check_rng(seed ^ 0xC0FFEEULL);
  phase.wait(0, std::memory_order_acquire);  // 0 = warm-up, 1 = timed, 2 = done
  const auto start = Clock::now();
  std::uint64_t sessions = 0;
  while (phase.load(std::memory_order_acquire) == 1) {
    if (traced) {
      const auto t0 = Clock::now();
      (void)router.capacity();
      out.capacity_wait_s += seconds_between(t0, Clock::now());
    }
    // run_read_session lives in the library, so the call cannot be elided.
    (void)pardfs::service::run_read_session(router, rng, kSessionQueries, nullptr);
    out.queries.fetch_add(kSessionQueries, std::memory_order_relaxed);
    if (++sessions % kCheckEvery == 0) {
      bool ok = true;
      if (check_one_read(router, check_rng, ok)) {
        ++out.checks;
        if (!ok) ++out.check_failures;
      }
    }
  }
  out.wall_s = seconds_between(start, Clock::now());
}

// Median wall time of one quiescent run_read_session query, ns.
double quiescent_query_ns(const ShardRouter& router, std::uint64_t seed) {
  constexpr int kQueries = 1 << 18;
  Rng rng(seed);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    (void)pardfs::service::run_read_session(router, rng, kQueries, nullptr);
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kQueries);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// Host-wide CPU clock ticks, total and stolen by the hypervisor.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes cpu_times() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ..." in clock ticks, summed over CPUs.
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// Resets the kernel's peak-RSS mark of this process to its current RSS
// (Linux clear_refs "5"); false where the kernel refuses it.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// Peak resident set of this process since the last reset, MiB (VmHWM; the
// whole life's ru_maxrss where /proc/self/status is missing).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One replay of the stream, closed loop, against a freshly constructed
// router; readers run run_read_session for the whole timed window.
void run_stream(ShardRouter& router, const Workload& w, const Stream& st, std::size_t rep,
                const LiveOptions& opt, LiveResult& res) {
  std::atomic<int> phase{0};
  std::vector<ReaderTally> tallies(static_cast<std::size_t>(w.readers));
  std::vector<std::thread> readers;
  for (int r = 0; r < w.readers; ++r) {
    readers.emplace_back(reader_loop, std::cref(router),
                         opt.seed * 1000 + 17 + 100 * rep +
                             static_cast<std::uint64_t>(r),
                         opt.traced,
                         std::cref(phase), std::ref(tallies[static_cast<std::size_t>(r)]));
  }
  auto reads_so_far = [&] {
    std::uint64_t q = 0;
    for (const ReaderTally& t : tallies) q += t.queries.load(std::memory_order_relaxed);
    return q;
  };

  const std::size_t n = st.updates.size();
  const std::size_t timed = n - w.warmup;
  res.shard.assign(n, 0);
  res.version.assign(n, 0);
  res.ack_us.reserve(timed);
  struct InFlight {
    UpdateTicket ticket;
    Clock::time_point submitted;
    std::size_t index;
  };
  std::deque<InFlight> inflight;
  std::size_t accepted = 0;
  Clock::time_point start;
  auto settle_oldest = [&] {
    InFlight& f = inflight.front();
    const std::uint64_t r = f.ticket.wait();
    const auto now = Clock::now();
    const bool ok = !UpdateTicket::is_status(r);
    if (ok) {
      res.version[f.index] = r;
    } else {
      ++res.status_acks;
    }
    if (f.index >= w.warmup) {
      res.ack_us.push_back(std::chrono::duration<double, std::micro>(now - f.submitted).count());
      accepted += ok ? 1 : 0;
    }
    inflight.pop_front();
  };
  auto settle_all = [&] {
    while (!inflight.empty()) settle_oldest();
  };

  double depth_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == w.warmup) {
      settle_all();
      start = Clock::now();
      phase.store(1, std::memory_order_release);
      phase.notify_all();
    }
    const bool barrier = st.barrier[i] != 0;
    if (barrier) settle_all();
    while (inflight.size() >= w.window) settle_oldest();
    const pardfs::GraphUpdate& u = st.updates[i];
    if (router.num_shards() > 1 && u.u != kNullVertex) res.shard[i] = router.shard_of(u.u);
    if (opt.traced && i >= w.warmup) depth_sum += static_cast<double>(router.queue_depth());
    UpdateTicket ticket = router.submit(u);
    inflight.push_back({std::move(ticket), Clock::now(), i});
    if (barrier) settle_all();
  }
  settle_all();
  const double wall = seconds_between(start, Clock::now());
  const std::uint64_t reads = reads_so_far();
  phase.store(2, std::memory_order_release);
  phase.notify_all();
  for (auto& t : readers) t.join();
  router.stop();

  res.rep_wall_s.push_back(wall);
  const std::vector<double> rep_acks(res.ack_us.end() - static_cast<std::ptrdiff_t>(timed),
                                     res.ack_us.end());
  res.rep_ack_p50_us.push_back(quantile(rep_acks, 0.50));
  res.rep_ack_p99_us.push_back(quantile(rep_acks, 0.99));
  res.rep_update_tput.push_back(static_cast<double>(accepted) / wall);
  res.rep_read_qps.push_back(static_cast<double>(reads) / wall);
  for (const ReaderTally& t : tallies) {
    res.read_checks += t.checks;
    res.read_check_failures += t.check_failures;
    res.capacity_wait_s += t.capacity_wait_s;
    res.reader_wall_s += t.wall_s;
  }
  res.updates_submitted += n;
  res.queue_depth_sum += depth_sum;
  res.stats = router.stats();

  // The served forest against the mirror the stream leaves behind.
  res.forest = router.assemble_parent();
  const pardfs::Graph& mirror = st.final_graph;
  const auto alive = router.assemble_alive();
  std::string reason = "ok";
  if (router.capacity() != mirror.capacity()) {
    reason = "capacity differs from the mirror";
  } else if (!std::equal(alive.begin(), alive.end(), mirror.alive().begin())) {
    reason = "alive set differs from the mirror";
  } else if (const auto v = pardfs::validate_dfs_forest(mirror, res.forest); !v.ok) {
    reason = v.reason;
  }
  if (reason != "ok") {
    res.forest_ok = false;
    res.forest_reason = "replay " + std::to_string(rep + 1) + ": " + reason;
  }
}

}  // namespace

LiveResult run_live(const Workload& w, const LiveOptions& opt) {
  LiveResult res;
  const CpuTimes cpu0 = cpu_times();
  std::unique_ptr<ShardRouter> router;
  // Cold constructions are spread over the replays, so setup_s samples the
  // host across the whole run and every replay's graph: each stream is
  // constructed `per_rep` times, and the last construction serves it.
  const std::size_t first = std::min(opt.first_stream, w.stream_seeds.size() - 1);
  const std::size_t reps = w.stream_seeds.size() - first;
  const std::size_t per_rep =
      std::max<std::size_t>(1, (static_cast<std::size_t>(std::max(opt.setups, 1)) + reps - 1) / reps);
  res.rss_per_replay = true;
  for (std::size_t rep = first; rep < w.stream_seeds.size(); ++rep) {
    router.reset();  // stop() + join of the previous one, outside the timing
    const Stream st = make_stream(w, rep);
    // The replay's peak RSS covers its constructions, its stream and its
    // run; what earlier replays left in the allocator counts as well.
    res.rss_per_replay = reset_peak_rss() && res.rss_per_replay;
    for (std::size_t c = 0; c < per_rep; ++c) {
      router.reset();
      pardfs::Graph g = st.initial;
      const auto t0 = Clock::now();
      router = std::make_unique<ShardRouter>(std::move(g), w.config);
      res.setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    run_stream(*router, w, st, rep, opt, res);
    res.rep_rss_mb.push_back(peak_rss_mb());
  }
  const CpuTimes cpu1 = cpu_times();
  if (cpu1.total > cpu0.total) {
    res.steal_frac = static_cast<double>(cpu1.steal - cpu0.steal) /
                     static_cast<double>(cpu1.total - cpu0.total);
  }
  if (opt.traced) res.query_ns = quiescent_query_ns(*router, opt.seed + 99);
  return res;
}

}  // namespace perfbench
