#include "service/update_queue.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "testing/chaos.hpp"
#include "util/check.hpp"

namespace pardfs::service {

const char* UpdateTicket::status_name(std::uint64_t result) {
  switch (result) {
    case kRejected: return "rejected";
    case kRetryable: return "retryable";
    case kTimeout: return "timeout";
    case kOverloaded: return "overloaded";
    default: return "version";
  }
}

std::uint64_t UpdateTicket::wait() const {
  // Total even on a never-enqueued ticket: a client racing DfsService::stop()
  // must see a rejection, not an aborted process.
  if (!valid()) return kRejected;
  // C++20 atomic wait: blocks until result leaves the pending values. The
  // transient kAcking claim (try_ack's claim-then-publish window) counts as
  // pending — the final result lands within two stores of it.
  for (;;) {
    const std::uint64_t r = state_->result.load(std::memory_order_acquire);
    if (r != 0 && r != kAcking) return r;
    state_->result.wait(r, std::memory_order_acquire);
  }
}

std::uint64_t UpdateTicket::wait_for(std::chrono::nanoseconds timeout) const {
  if (!valid()) return kRejected;
  // C++20 atomic wait has no timed variant, so the bounded wait is a
  // monotonic-deadline poll with capped exponential backoff: responsive at
  // microsecond ack latencies, cheap when the writer is stalled for the full
  // deadline (the case this call exists for — see DESIGN.md §13).
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::chrono::nanoseconds step{2000};
  for (;;) {
    const std::uint64_t r = state_->result.load(std::memory_order_acquire);
    if (r != 0 && r != kAcking) return r;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return kTimeout;
    std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
        {step, deadline - now}));
    step = std::min<std::chrono::nanoseconds>(step * 2,
                                              std::chrono::nanoseconds{1000000});
  }
}

std::optional<std::uint64_t> UpdateTicket::poll() const {
  if (!valid()) return std::nullopt;
  const std::uint64_t r = state_->result.load(std::memory_order_acquire);
  if (r == 0 || r == kAcking) return std::nullopt;
  return r;
}

void UpdateTicket::ack(std::uint64_t result, Vertex vertex) const {
  PARDFS_CHECK(valid() && result != 0);
  state_->vertex.store(vertex, std::memory_order_release);
  state_->result.store(result, std::memory_order_release);
  state_->result.notify_all();
}

bool UpdateTicket::try_ack(std::uint64_t result, Vertex vertex) const {
  PARDFS_CHECK(valid() && result != 0 && result != kAcking);
  // Claim-then-publish: CAS the result from pending to the transient kAcking
  // claim first, and only the claim winner writes the vertex. A losing acker
  // returns false having written nothing — whether it runs before or after
  // the winner's final store — so it can never overwrite the winner's
  // assigned vertex. Waiters treat kAcking as still-pending, which keeps the
  // vertex visible before any observable "done" result.
  std::uint64_t expected = 0;
  if (!state_->result.compare_exchange_strong(expected, kAcking,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    return false;
  }
  state_->vertex.store(vertex, std::memory_order_release);
  state_->result.store(result, std::memory_order_release);
  state_->result.notify_all();
  return true;
}

UpdateQueue::UpdateQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

UpdateTicket UpdateQueue::submit(GraphUpdate update) {
  // Chaos queue_full hook: a plan-ordered shed behaves exactly like the
  // router's admission control — the client sees kOverloaded and backs off.
  if (chaos_scope_ >= 0 &&
      chaos::hit(chaos::FaultPoint::kQueueFull,
                 static_cast<std::size_t>(chaos_scope_))
              .kind == chaos::FaultAction::Kind::kShed) {
    overload_sheds_.fetch_add(1, std::memory_order_relaxed);
    UpdateTicket ticket = UpdateTicket::make();
    ticket.ack(UpdateTicket::kOverloaded);
    return ticket;
  }
  std::unique_lock lock(mu_);
  not_full_.wait(lock, [&] { return fifo_.size() < capacity_ || closed_; });
  if (closed_) {
    // A submit that lost the race against close() gets a ticket already
    // acknowledged as rejected: wait()/poll() on it behave exactly like a
    // feasibility rejection instead of tripping the valid() check.
    lock.unlock();
    rejected_after_close_.fetch_add(1, std::memory_order_relaxed);
    UpdateTicket ticket = UpdateTicket::make();
    ticket.ack(UpdateTicket::kRejected);
    return ticket;
  }
  UpdateTicket ticket = UpdateTicket::make();
  fifo_.push_back({std::move(update), ticket, obs::now_ns()});
  lock.unlock();
  not_empty_.notify_one();
  return ticket;
}

bool UpdateQueue::try_submit(GraphUpdate update, UpdateTicket* ticket) {
  {
    std::lock_guard lock(mu_);
    if (closed_ || fifo_.size() >= capacity_) return false;
    *ticket = UpdateTicket::make();
    fifo_.push_back({std::move(update), *ticket, obs::now_ns()});
  }
  not_empty_.notify_one();
  return true;
}

bool UpdateQueue::drain(std::vector<PendingUpdate>& out, std::size_t max_items) {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [&] { return !fifo_.empty() || closed_; });
  if (fifo_.empty()) return false;  // closed and drained
  const std::size_t take = std::min(max_items == 0 ? fifo_.size() : max_items,
                                    fifo_.size());
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(std::move(fifo_.front()));
    fifo_.pop_front();
  }
  lock.unlock();
  not_full_.notify_all();
  return true;
}

void UpdateQueue::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t UpdateQueue::size() const {
  std::lock_guard lock(mu_);
  return fifo_.size();
}

}  // namespace pardfs::service
