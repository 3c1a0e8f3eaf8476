#include "tree/lca.hpp"

#include <algorithm>
#include <bit>

namespace pardfs {

std::span<std::int32_t> LcaTable::begin_build(std::size_t n) {
  values_.resize(n);
  return values_;
}

void LcaTable::finish_build(std::size_t count) {
  values_.resize(count);
  const std::size_t n = count;
  num_blocks_ = static_cast<std::int32_t>((n + kBlock - 1) / kBlock);
  const std::size_t blocks = static_cast<std::size_t>(num_blocks_);
  log2_.assign(blocks + 1, 0);
  for (std::size_t i = 2; i <= blocks; ++i) log2_[i] = log2_[i / 2] + 1;

  stack_.resize(n);
  const int levels = log2_[blocks] + 1;
  block_table_.resize(static_cast<std::size_t>(levels) * blocks);
  // Level 0: each position's stack word and each block's minimum, one pass.
  // A position pops every strictly larger entry, so each is popped once.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(lo + kBlock, n);
    std::uint32_t live = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int32_t x = values_[i];
      while (live != 0 && values_[lo + std::bit_width(live) - 1] > x) {
        live ^= std::uint32_t{1} << (std::bit_width(live) - 1);
      }
      live |= std::uint32_t{1} << (i - lo);
      stack_[i] = live;
    }
    block_table_[b] = values_[lo + static_cast<std::size_t>(std::countr_zero(live))];
  }
  // Doubling levels over block minima: (n / kBlock) log n total work.
  for (int k = 1; k < levels; ++k) {
    const std::size_t span = std::size_t{1} << k;
    const std::size_t rows = blocks - span + 1;
    const std::int32_t* prev = block_table_.data() + (k - 1) * blocks;
    std::int32_t* cur = block_table_.data() + k * blocks;
    for (std::size_t i = 0; i < rows; ++i) {
      cur[i] = std::min(prev[i], prev[i + span / 2]);
    }
  }
}

std::size_t LcaTable::heap_capacity_bytes() const {
  return values_.capacity() * sizeof(std::int32_t) +
         stack_.capacity() * sizeof(std::uint32_t) +
         block_table_.capacity() * sizeof(std::int32_t) +
         log2_.capacity() * sizeof(std::int32_t);
}

std::int32_t LcaTable::in_block(std::int32_t lo, std::int32_t hi) const {
  // lo and hi share a block; the stack bits below lo's offset are masked
  // off, and hi's own bit is always set, so the word is never zero.
  const std::uint32_t live =
      stack_[static_cast<std::size_t>(hi)] & (~std::uint32_t{0} << (lo & kBlockMask));
  return values_[static_cast<std::size_t>((hi & ~kBlockMask) + std::countr_zero(live))];
}

std::int32_t LcaTable::range_min(std::int32_t lo, std::int32_t hi) const {
  // Branch-free evaluation (DESIGN.md §10): instead of the per-level
  // if-ladder (same block? middle blocks?), every candidate is computed
  // over a clamped window and dead candidates lose by construction:
  //   * head window [lo, min(hi, bl's end)] and tail window
  //     [max(lo, bh's start), hi] both degenerate to [lo, hi] when
  //     bl == bh, so the head/tail min IS the answer there;
  //   * the sparse-table middle is clamped to the single block bl when no
  //     full middle block exists and its candidate is masked out by
  //     have_mid. Every select below is a cmov-friendly min or ternary.
  const std::int32_t bl = lo >> kBlockShift;
  const std::int32_t bh = hi >> kBlockShift;
  const std::int32_t head_hi = std::min(hi, (bl << kBlockShift) | kBlockMask);
  const std::int32_t tail_lo = std::max(lo, bh << kBlockShift);
  const std::int32_t edges = std::min(in_block(lo, head_hi), in_block(tail_lo, hi));
  const bool have_mid = bh - bl > 1;
  const std::int32_t first = have_mid ? bl + 1 : bl;
  const std::int32_t last = have_mid ? bh - 1 : bl;
  const std::int32_t k = log2_[static_cast<std::size_t>(last - first + 1)];
  const std::int32_t* row =
      block_table_.data() + static_cast<std::size_t>(k) * num_blocks_;
  const std::int32_t mid = std::min(row[first], row[last - (1 << k) + 1]);
  return have_mid ? std::min(edges, mid) : edges;
}

}  // namespace pardfs
