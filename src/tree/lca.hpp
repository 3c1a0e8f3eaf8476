// O(1) LCA after O(n) preprocessing: block RMQ over the index's pre order.
//
// Stand-in for Schieber–Vishkin (paper Theorem 5/6) with identical query
// complexity, read from the one numbering TreeIndex already builds. For
// u != v in one tree, every vertex at pre positions
// (min(pre u, pre v), max(pre u, pre v)] lies in the LCA's subtree below the
// LCA, and the shallowest of them are the LCA's children. So the smallest
// parent pre over that range is pre(lca): the table holds each position's
// parent pre and answers range minima. The values are cut into blocks of
// kBlock; a sparse table is built over block minima only (n/kBlock entries),
// so preprocessing is O(n + (n / kBlock) log n) — the table's log factor no
// longer multiplies n, which matters because the epoch update loop rebuilds
// this structure after every structural update. In-block queries read one
// word per position: the block-local monotone stack after that position (bit
// t set iff local position t holds no larger value than anything after it up
// to the position), so the lowest stack bit at or above the query's start is
// its minimum. See DESIGN.md §6 for the substitution note.
#pragma once

#include <cstdint>
#include <span>

#include "util/simd.hpp"

namespace pardfs {

class LcaTable {
 public:
  LcaTable() = default;

  // A build is two calls. begin_build(n) returns n slots, and the caller
  // writes slot i = pre position of the parent of the vertex at pre position
  // i (forests: trees concatenated in pre order; any value at a root, whose
  // position no same-tree query range contains). finish_build(count) then
  // indexes slots [0, count). The table owns its buffers for life, so a
  // steady-state rebuild allocates nothing.
  std::span<std::int32_t> begin_build(std::size_t n);
  void finish_build(std::size_t count);

  // Sum of owned heap capacities in bytes (buffer-reuse accounting).
  std::size_t heap_capacity_bytes() const;

  // Smallest parent pre over positions [lo, hi] (inclusive, lo <= hi).
  std::int32_t range_min(std::int32_t lo, std::int32_t hi) const;

 private:
  static constexpr std::int32_t kBlock = 32;  // bits of a stack word
  static constexpr std::int32_t kBlockShift = 5;  // log2(kBlock)
  static constexpr std::int32_t kBlockMask = kBlock - 1;

  // Minimum over positions [lo, hi] (same block) via hi's stack word.
  std::int32_t in_block(std::int32_t lo, std::int32_t hi) const;

  // values_[i]: parent pre of pre position i. It, stack_[i] (the
  // block-local monotone stack after position i, see above) and the block
  // tables below are the query-time working set and sit on simd::kAlign
  // boundaries (DESIGN.md §10).
  simd::aligned_vector<std::int32_t> values_;
  simd::aligned_vector<std::uint32_t> stack_;
  // block_table_ is a flat level-major array: level k (window of 2^k blocks)
  // lives at [k * num_blocks_, k * num_blocks_ + num_blocks_ - 2^k + 1) and
  // holds the minimum of that block window.
  simd::aligned_vector<std::int32_t> block_table_;
  simd::aligned_vector<std::int32_t> log2_;  // log2_[b] for block counts
  std::int32_t num_blocks_ = 0;
};

}  // namespace pardfs
