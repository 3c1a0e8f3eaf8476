#include "tree/lca.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace pardfs {
namespace {

// argmin of every (i, j) window for every ±1 descent pattern of a block:
// pos[p][i][j] is the local position of the depth minimum on [i, j] when bit
// (t-1) of p says the tour descends into local position t. 8 KiB, built once
// per process; blocks straddling tree boundaries have non-±1 steps encoded
// as ascents, which is safe because a query range never crosses trees.
struct PatternTable {
  std::uint8_t pos[128][8][8];
  PatternTable() {
    for (int p = 0; p < 128; ++p) {
      int d[8] = {0};
      for (int t = 1; t < 8; ++t) d[t] = d[t - 1] + (((p >> (t - 1)) & 1) ? -1 : 1);
      for (int i = 0; i < 8; ++i) {
        for (int j = i; j < 8; ++j) {
          int best = i;
          for (int t = i + 1; t <= j; ++t) {
            if (d[t] < d[best]) best = t;
          }
          pos[p][i][j] = static_cast<std::uint8_t>(best);
        }
      }
    }
  }
};
const PatternTable g_patterns;

}  // namespace

void LcaTable::build(std::vector<Vertex>& euler, std::vector<std::int32_t>& depth_at,
                     std::vector<std::int32_t>& first_pos) {
  euler_.swap(euler);
  depth_at_.swap(depth_at);
  first_pos_.swap(first_pos);
  const std::size_t n = euler_.size();
  if (n == 0) {
    pattern_.clear();
    block_table_.clear();
    log2_.clear();
    num_blocks_ = 0;
    return;
  }

  num_blocks_ = static_cast<std::int32_t>((n + kBlock - 1) / kBlock);
  const std::size_t blocks = static_cast<std::size_t>(num_blocks_);
  log2_.assign(blocks + 1, 0);
  for (std::size_t i = 2; i <= blocks; ++i) log2_[i] = log2_[i / 2] + 1;

  pattern_.resize(blocks);
  const int levels = log2_[blocks] + 1;
  block_table_.resize(static_cast<std::size_t>(levels) * blocks);
  // Level 0: descent pattern and argmin position of each block, one pass.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::int32_t lo = static_cast<std::int32_t>(b) * kBlock;
    const std::int32_t hi =
        std::min(lo + kBlock - 1, static_cast<std::int32_t>(n) - 1);
    std::uint8_t p = 0;
    for (std::int32_t t = 1; t <= hi - lo; ++t) {
      if (depth_at_[static_cast<std::size_t>(lo + t)] <
          depth_at_[static_cast<std::size_t>(lo + t - 1)]) {
        p |= static_cast<std::uint8_t>(1u << (t - 1));
      }
    }
    pattern_[b] = p;
    block_table_[b] = lo + g_patterns.pos[p][0][hi - lo];
  }
  // Doubling levels over block minima: (n / kBlock) log n total work.
  for (int k = 1; k < levels; ++k) {
    const std::size_t span = std::size_t{1} << k;
    const std::size_t rows = blocks - span + 1;
    const std::int32_t* prev = block_table_.data() + (k - 1) * blocks;
    std::int32_t* cur = block_table_.data() + k * blocks;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::int32_t a = prev[i];
      const std::int32_t b = prev[i + span / 2];
      cur[i] = depth_at_[static_cast<std::size_t>(a)] <=
                       depth_at_[static_cast<std::size_t>(b)]
                   ? a
                   : b;
    }
  }
}

std::size_t LcaTable::heap_capacity_bytes() const {
  return euler_.capacity() * sizeof(Vertex) +
         depth_at_.capacity() * sizeof(std::int32_t) +
         first_pos_.capacity() * sizeof(std::int32_t) + pattern_.capacity() +
         block_table_.capacity() * sizeof(std::int32_t) +
         log2_.capacity() * sizeof(std::int32_t);
}

std::int32_t LcaTable::in_block(std::int32_t lo, std::int32_t hi) const {
  // lo and hi share a block; locals fall out of the low bits, no division.
  const std::int32_t base = lo & ~kBlockMask;
  return base + g_patterns.pos[pattern_[static_cast<std::size_t>(
                    lo >> kBlockShift)]][lo & kBlockMask][hi & kBlockMask];
}

std::int32_t LcaTable::argmin(std::int32_t lo, std::int32_t hi) const {
  // Branch-free evaluation (DESIGN.md §10): instead of the per-level
  // if-ladder (same block? middle blocks?), every candidate is computed
  // over a clamped window and dead candidates lose by construction:
  //   * head window [lo, min(hi, bl's end)] and tail window
  //     [max(lo, bh's start), hi] both degenerate to [lo, hi] when
  //     bl == bh, so the head/tail min IS the answer there;
  //   * the sparse-table middle is clamped to the single block bl when no
  //     full middle block exists and its candidate is masked out by
  //     have_mid. Every select below is a cmov-friendly ternary.
  const std::int32_t bl = lo >> kBlockShift;
  const std::int32_t bh = hi >> kBlockShift;
  const std::int32_t head_hi = std::min(hi, (bl << kBlockShift) | kBlockMask);
  const std::int32_t tail_lo = std::max(lo, bh << kBlockShift);
  const std::int32_t head = in_block(lo, head_hi);
  const std::int32_t tail = in_block(tail_lo, hi);
  std::int32_t best = depth_at_[static_cast<std::size_t>(tail)] <
                              depth_at_[static_cast<std::size_t>(head)]
                          ? tail
                          : head;
  const bool have_mid = bh - bl > 1;
  const std::int32_t first = have_mid ? bl + 1 : bl;
  const std::int32_t last = have_mid ? bh - 1 : bl;
  const std::int32_t k = log2_[static_cast<std::size_t>(last - first + 1)];
  const std::int32_t* row =
      block_table_.data() + static_cast<std::size_t>(k) * num_blocks_;
  const std::int32_t a = row[first];
  const std::int32_t b = row[last - (1 << k) + 1];
  const std::int32_t mid =
      depth_at_[static_cast<std::size_t>(a)] <= depth_at_[static_cast<std::size_t>(b)]
          ? a
          : b;
  best = have_mid && depth_at_[static_cast<std::size_t>(mid)] <
                         depth_at_[static_cast<std::size_t>(best)]
             ? mid
             : best;
  return best;
}

Vertex LcaTable::query(Vertex u, Vertex v) const {
  const std::int32_t pu = first_pos_[static_cast<std::size_t>(u)];
  const std::int32_t pv = first_pos_[static_cast<std::size_t>(v)];
  PARDFS_DCHECK(pu >= 0 && pv >= 0);
  return euler_[static_cast<std::size_t>(
      argmin(std::min(pu, pv), std::max(pu, pv)))];
}

}  // namespace pardfs
