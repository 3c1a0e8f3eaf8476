#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "pram/list_ranking.hpp"
#include "pram/merge_sort.hpp"
#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "util/random.hpp"

namespace pardfs::pram {
namespace {

TEST(ParallelFor, CoversRange) {
  std::vector<int> hits(10000, 0);
  parallel_for_t(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(ParallelReduce, SumMatchesSerial) {
  const std::size_t n = 100000;
  const std::uint64_t total = parallel_reduce(
      std::size_t{0}, n, std::uint64_t{0}, [](std::size_t i) { return std::uint64_t(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, std::uint64_t(n) * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int r = parallel_reduce(
      std::size_t{5}, std::size_t{5}, -1, [](std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, -1);
}

TEST(Scan, ExclusivePrefixSums) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{5000}}) {
    std::vector<std::uint32_t> in(n), out(n);
    Rng rng(n + 1);
    for (auto& x : in) x = static_cast<std::uint32_t>(rng.below(100));
    const std::uint64_t total = exclusive_scan(in, out);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], acc) << "index " << i;
      acc += in[i];
    }
    EXPECT_EQ(total, acc);
  }
}

TEST(Scan, PackIndicesKeepsOrder) {
  std::vector<std::uint8_t> flags = {1, 0, 0, 1, 1, 0, 1};
  const auto packed = pack_indices(flags);
  const std::vector<std::uint32_t> expected = {0, 3, 4, 6};
  EXPECT_EQ(packed, expected);
}

TEST(ListRanking, SingleList) {
  // 3 -> 1 -> 4 -> 0 -> end; node 2 is its own tail.
  std::vector<std::uint32_t> next = {kListEnd, 4, kListEnd, 1, 0};
  const auto rank = list_rank(next);
  EXPECT_EQ(rank[3], 3u);
  EXPECT_EQ(rank[1], 2u);
  EXPECT_EQ(rank[4], 1u);
  EXPECT_EQ(rank[0], 0u);
  EXPECT_EQ(rank[2], 0u);
}

TEST(ListRanking, LongChain) {
  const std::size_t n = 4096;
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = i + 1 < n ? static_cast<std::uint32_t>(i + 1) : kListEnd;
  }
  const auto rank = list_rank(next);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rank[i], n - 1 - i);
    if (i % 577 == 0) continue;  // spot checks are enough for failure output
  }
}

TEST(ListRanking, ManyDisjointLists) {
  // Pairs: 0->1, 2->3, ...
  const std::size_t n = 1000;
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = i % 2 == 0 ? static_cast<std::uint32_t>(i + 1) : kListEnd;
  }
  const auto rank = list_rank(next);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(rank[i], i % 2 == 0 ? 1u : 0u);
}

// Random permutation of [0, n) cut into random-length lists; returns the
// successor array.
std::vector<std::uint32_t> random_lists(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::vector<std::uint32_t> next(n, kListEnd);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // ~1 in 64 links cut, so lists of every length from singletons up.
    if (rng.below(64) != 0) next[order[i]] = order[i + 1];
  }
  return next;
}

TEST(ListRanking, MatchesNaiveWalkAcrossSizesAndThreads) {
  // Sizes straddle the serial grain (below it the lists are walked whole)
  // and the sublist block; thread counts change the splitter walk's team
  // but never the result.
  for (const std::size_t n : {std::size_t{1}, kSublistBlock - 1, kSublistBlock,
                              kSublistBlock + 1, kSerialGrain - 1, kSerialGrain,
                              kSerialGrain + 1, std::size_t{1} << 17}) {
    Rng rng(n + 17);
    const std::vector<std::uint32_t> next = random_lists(n, rng);
    // Naive reference: find the heads, walk each list to its end, then
    // back-fill distances to the tail.
    std::vector<std::uint8_t> has_pred(n, 0);
    for (const std::uint32_t s : next) {
      if (s != kListEnd) has_pred[s] = 1;
    }
    std::vector<std::uint32_t> want_rank(n), want_head(n);
    std::vector<std::uint32_t> walk;
    for (std::uint32_t h = 0; h < n; ++h) {
      if (has_pred[h]) continue;
      walk.clear();
      for (std::uint32_t x = h; x != kListEnd; x = next[x]) walk.push_back(x);
      for (std::size_t i = 0; i < walk.size(); ++i) {
        want_rank[walk[i]] = static_cast<std::uint32_t>(walk.size() - 1 - i);
        want_head[walk[i]] = h;
      }
    }
    for (const int threads : {1, 2, 4, 8}) {
      set_num_threads(threads);
      std::vector<std::uint32_t> head;
      const auto rank = list_rank(next, &head);
      EXPECT_EQ(rank, want_rank) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(head, want_head) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(list_rank(next), want_rank) << "n=" << n << " threads=" << threads;
    }
    set_num_threads(0);
  }
}

TEST(MergeSort, SortsRandomKeys) {
  Rng rng(42);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{100}, std::size_t{10000}}) {
    std::vector<std::uint32_t> data(n);
    for (auto& x : data) x = static_cast<std::uint32_t>(rng());
    std::vector<std::uint32_t> expected = data;
    std::sort(expected.begin(), expected.end());
    merge_sort(data);
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST(MergeSort, PairsSortStablyByKey) {
  Rng rng(7);
  const std::size_t n = 20000;
  std::vector<std::uint64_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = (rng.below(50) << 32) | i;  // key in high bits, unique payload low
  }
  std::vector<std::uint64_t> expected = data;
  std::stable_sort(expected.begin(), expected.end(),
                   [](std::uint64_t a, std::uint64_t b) { return (a >> 32) < (b >> 32); });
  merge_sort_pairs(data);
  EXPECT_EQ(data, expected);
}

TEST(Rng, DeterministicAndUnbiasedish) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(1);
  std::size_t lo = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (c.below(10) < 5) ++lo;
  }
  EXPECT_NEAR(static_cast<double>(lo) / trials, 0.5, 0.03);
}

}  // namespace
}  // namespace pardfs::pram
