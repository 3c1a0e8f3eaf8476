// MPSC update queue with backpressure and per-update acknowledgement.
//
// Any number of producer threads submit GraphUpdates; the single consumer
// (the DfsService writer thread) drains them in FIFO order, many at a time —
// that drain is what turns concurrent single updates into the batches
// DynamicDfs::apply_batch amortizes. A bounded ring provides backpressure:
// submit() blocks while the queue is full, so producers can never outrun the
// writer by more than `capacity` updates.
//
// Each accepted submit returns an UpdateTicket. The writer acknowledges it
// after the update's batch is applied and its snapshot published; wait()
// then yields the snapshot version that first reflects the update (or
// UpdateTicket::kRejected if the service refused it as infeasible). Tickets
// use C++20 atomic wait/notify — no mutex is shared between producers
// waiting on acks and the writer publishing them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace pardfs::service {

class UpdateQueue;
class ShardRouter;

class UpdateTicket {
 public:
  // Ack value for updates the service refused (infeasible against the state
  // they would have applied to). Real versions are small positive numbers;
  // the status values occupy the top of the uint64 range (DESIGN.md §13):
  //   kRejected   — definitively refused (infeasible / shutdown); retrying
  //                 the same op would be refused again.
  //   kRetryable  — the update was lost to a writer crash before it was
  //                 journaled; it was NOT applied, and resubmitting is safe
  //                 and expected (service/workload.hpp's submit_with_retry).
  //   kTimeout    — returned only by wait_for(): the deadline passed while
  //                 the ticket was still pending. The update is still in
  //                 flight; wait()/wait_for() again or poll() later.
  //   kOverloaded — admission control shed the update at submit time (queue
  //                 depth beyond the configured bound); it never entered a
  //                 queue. Back off and retry.
  static constexpr std::uint64_t kRejected = ~std::uint64_t{0};
  static constexpr std::uint64_t kRetryable = ~std::uint64_t{0} - 1;
  static constexpr std::uint64_t kTimeout = ~std::uint64_t{0} - 2;
  static constexpr std::uint64_t kOverloaded = ~std::uint64_t{0} - 3;

  // True when `result` is one of the status sentinels above rather than a
  // publishing snapshot version.
  static constexpr bool is_status(std::uint64_t result) {
    return result >= kOverloaded;
  }
  // "rejected" / "retryable" / "timeout" / "overloaded" / "version".
  static const char* status_name(std::uint64_t result);

  UpdateTicket() = default;
  bool valid() const { return state_ != nullptr; }
  bool done() const {
    if (!valid()) return false;
    const std::uint64_t r = state_->result.load(std::memory_order_acquire);
    return r != 0 && r != kAcking;
  }
  // Blocks until acknowledged; returns the publishing snapshot version, or
  // a status sentinel. Total: on a default-constructed (never enqueued)
  // ticket it returns kRejected immediately.
  std::uint64_t wait() const;
  // Bounded wait: like wait(), but returns kTimeout once `timeout` elapses
  // with the ticket still pending (monotonic clock; the ticket itself stays
  // pending and may be waited on again). Never acks the ticket.
  std::uint64_t wait_for(std::chrono::nanoseconds timeout) const;
  // Non-blocking probe; empty while unacknowledged.
  std::optional<std::uint64_t> poll() const;
  // For kInsertVertex updates: the id the core assigned, available once the
  // ticket is acknowledged; kNullVertex otherwise.
  Vertex assigned_vertex() const {
    return valid() ? state_->vertex.load(std::memory_order_acquire) : kNullVertex;
  }

 private:
  friend class UpdateQueue;
  friend class ShardRouter;
  // Transient claim sentinel for try_ack's claim-then-publish protocol: the
  // winning acker CASes `result` from 0 to this, publishes the vertex, then
  // stores the real result. Never visible to clients — done()/wait()/poll()
  // all treat it as still-pending — and never a valid status (is_status is
  // false for it, and no acker may pass it as a result).
  static constexpr std::uint64_t kAcking = ~std::uint64_t{0} - 4;
  struct State {
    std::atomic<std::uint64_t> result{0};  // 0 = pending
    std::atomic<Vertex> vertex{kNullVertex};
  };
  static UpdateTicket make() {
    UpdateTicket t;
    t.state_ = std::make_shared<State>();
    return t;
  }
  void ack(std::uint64_t result, Vertex vertex = kNullVertex) const;
  // Exactly-once ack: succeeds only if the ticket was still pending. The
  // recovery path uses this so a crash-time kRetryable sweep and a journal
  // replay can race benignly — whichever acks first wins, the other is a
  // no-op (returns false).
  bool try_ack(std::uint64_t result, Vertex vertex = kNullVertex) const;
  // Identity: two tickets acknowledge the same waiter. The writer's crash
  // handler uses it to exclude journaled (wal-pending) tickets from the
  // kRetryable sweep.
  bool same_ticket(const UpdateTicket& other) const {
    return state_ == other.state_;
  }

  std::shared_ptr<State> state_;
};

struct PendingUpdate {
  GraphUpdate update;
  UpdateTicket ticket;
  // obs::now_ns() at submit time: the writer turns it into the queue_wait
  // phase and the end-to-end ack latency (DESIGN.md §11). Zero when metrics
  // are compiled out.
  std::uint64_t enqueue_ns = 0;
};

class UpdateQueue {
 public:
  explicit UpdateQueue(std::size_t capacity);

  // Producer side. submit() blocks while the queue is full (backpressure).
  // Once the queue is closed it returns a ticket already acknowledged as
  // kRejected — safe to wait() on, exactly like a feasibility rejection —
  // so producers racing close() never observe a half-made ticket.
  // try_submit() returns false instead of blocking (and on a closed queue).
  UpdateTicket submit(GraphUpdate update);
  bool try_submit(GraphUpdate update, UpdateTicket* ticket);

  // Consumer side: blocks until at least one update is pending (or the
  // queue closes), then moves up to max_items of the FIFO into `out`
  // (appended). Returns false only when closed and fully drained.
  bool drain(std::vector<PendingUpdate>& out, std::size_t max_items);

  // After close() producers get failures, the consumer drains the remnant.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  // Submits that lost the race against close() and came back pre-rejected.
  // These never reach the writer, so ServiceStats reads them from here
  // (rejected_shutdown) instead of the drain path.
  std::uint64_t rejected_after_close() const {
    return rejected_after_close_.load(std::memory_order_relaxed);
  }

  // Arms this queue's chaos hook (testing/chaos.hpp `queue_full` point):
  // submit() consults the process-wide fault plan as shard `scope` and, when
  // ordered to shed, returns a ticket pre-acked kOverloaded without
  // enqueueing. Inert unless PARDFS_ENABLE_CHAOS is compiled in; routers
  // only call this when ServiceConfig::enable_chaos is set.
  void enable_chaos(std::int32_t scope) { chaos_scope_ = scope; }
  // Submits shed by the chaos hook (the router folds these into
  // ServiceStats::overload_sheds).
  std::uint64_t overload_sheds() const {
    return overload_sheds_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<PendingUpdate> fifo_;
  bool closed_ = false;
  std::atomic<std::uint64_t> rejected_after_close_{0};
  std::int32_t chaos_scope_ = -1;  // -1 = hook disabled
  std::atomic<std::uint64_t> overload_sheds_{0};
};

}  // namespace pardfs::service
