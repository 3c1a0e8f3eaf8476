#include "pram/list_ranking.hpp"

#include <bit>

#include "pram/parallel.hpp"
#include "pram/scan.hpp"

namespace pardfs::pram {
namespace {

constexpr std::uint32_t kNone = kListEnd;

static_assert(std::has_single_bit(kSublistBlock), "kSublistBlock must be a power of two");

// Fibonacci hashing: the top bits of i * 2^32/phi are close to uniform, so
// about one id in kSublistBlock is picked, spread evenly over any list.
bool hashed_splitter(std::uint32_t i) {
  return (i * 0x9E3779B1u) >> (32 - std::countr_zero(kSublistBlock)) == 0;
}

}  // namespace

std::vector<std::uint32_t> list_rank(std::span<const std::uint32_t> next,
                                     std::vector<std::uint32_t>* head) {
  const std::size_t n = next.size();
  std::vector<std::uint32_t> rank(n, 0);
  if (head != nullptr) head->resize(n);
  if (n == 0) return rank;
  const bool split = n >= kSerialGrain && num_threads() > 1;
  const int threads = split ? 0 : 1;

  // A node with no predecessor heads a list.
  std::vector<std::uint8_t> has_pred(n, 0);
  parallel_for_t(0, n, [&](std::size_t i) {
    if (next[i] != kListEnd) has_pred[next[i]] = 1;
  });
  // Sublist starts: every head of a list longer than one node, plus the
  // hashed splitters when the walk is split. Singletons start nothing.
  std::vector<std::uint8_t> is_start(n);
  parallel_for_t(0, n, [&](std::size_t i) {
    is_start[i] = has_pred[i] == 0
                      ? next[i] != kListEnd
                      : split && hashed_splitter(static_cast<std::uint32_t>(i));
  });
  const std::vector<std::uint32_t> start = pack_indices(is_start);
  const std::size_t num_sub = start.size();
  // sub[i] = id of the sublist i belongs to; kNone marks nodes not yet
  // walked (and singletons, which no walk reaches).
  std::vector<std::uint32_t> sub(n, kNone);
  parallel_for_t(0, num_sub, [&](std::size_t k) {
    sub[start[k]] = static_cast<std::uint32_t>(k);
  });

  // Walk each sublist up to the next start, recording every node's local
  // offset (in rank) and sublist id. A walker reads and writes only its own
  // nodes' sub slots, plus the read-only slot of the start it stops at.
  std::vector<std::uint32_t> len(num_sub), succ_sub(num_sub), base(num_sub);
  parallel_for_workers(num_sub, threads, [&](int, std::size_t k) {
    std::uint32_t local = 0;
    std::uint32_t y = next[start[k]];
    for (; y != kListEnd && sub[y] == kNone; y = next[y]) {
      rank[y] = ++local;
      sub[y] = static_cast<std::uint32_t>(k);
    }
    len[k] = local + 1;
    succ_sub[k] = y == kListEnd ? kNone : sub[y];
  });

  // Rank the sublist lists, one list per head: base[k] becomes the rank of
  // sublist k's first node.
  std::vector<std::uint32_t> head_of(head != nullptr ? num_sub : 0);
  parallel_for_t(0, num_sub, [&](std::size_t k0) {
    if (has_pred[start[k0]] != 0) return;
    std::uint32_t total = 0;
    for (std::uint32_t k = static_cast<std::uint32_t>(k0); k != kNone; k = succ_sub[k]) {
      base[k] = total;
      total += len[k];
    }
    for (std::uint32_t k = static_cast<std::uint32_t>(k0); k != kNone; k = succ_sub[k]) {
      base[k] = total - 1 - base[k];
      if (head != nullptr) head_of[k] = start[k0];
    }
  });

  parallel_for_t(0, n, [&](std::size_t i) {
    const std::uint32_t k = sub[i];
    if (k == kNone) {  // singleton list: rank 0, its own head
      if (head != nullptr) (*head)[i] = static_cast<std::uint32_t>(i);
      return;
    }
    rank[i] = base[k] - rank[i];
    if (head != nullptr) (*head)[i] = head_of[k];
  });
  return rank;
}

}  // namespace pardfs::pram
