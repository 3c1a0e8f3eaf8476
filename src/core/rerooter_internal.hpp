// Internal plumbing shared by rerooter.cpp (engine) and traversals.cpp
// (strategy). Not part of the public API.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/components.hpp"
#include "core/rerooter.hpp"

namespace pardfs::detail {

// A planned traversal: a single chain starting at the component entry
// (consecutive vertices are graph-adjacent: tree edges or one of the
// scenario back edges), plus the unvisited remainder as pieces.
struct TraversalPlan {
  std::vector<Vertex> pstar;
  std::vector<Piece> leftovers;
};

// Maximal runs of the chain that are monotone in the current tree (split at
// back-edge jumps and at bends). Queries address one run at a time.
struct Run {
  std::size_t first = 0;  // inclusive indices into pstar
  std::size_t last = 0;
};

std::vector<Run> split_runs(const TreeIndex& cur, const std::vector<Vertex>& chain);

// Engine context handed to the planner: tree, oracle view, scratch marking
// arrays (stamped, O(1) reset), per-step query-batch counter and stats.
//
// One context belongs to ONE worker thread: components of a round step
// concurrently (rerooter.cpp), and everything mutable a step touches — the
// marking scratch, the chain-position index, the step counter, the stats and
// the oracle view's path-decomposition memo — lives here. The view is
// therefore held by value: the copy inherits the caller's memo (warm from
// the preceding reduction) and grows its own entries without synchronizing.
// Per-worker stats are merged by the engine at the end of the run; all
// counters are sums (or max), so the merge is order-independent.
class EngineCtx {
 public:
  EngineCtx(const TreeIndex& cur, const OracleView& view)
      : cur_(cur), view_(view) {
    mark_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    pos_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    pos_val_.assign(static_cast<std::size_t>(cur.capacity()), -1);
    visit_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    piece_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    piece_val_.assign(static_cast<std::size_t>(cur.capacity()), -1);
  }

  const TreeIndex& cur() const { return cur_; }
  const OracleView& view() const { return view_; }
  RerootStats& stats() { return stats_; }

  // ---- marking scratch (visited set of the current plan) ------------------
  void begin_mark() { ++generation_; }
  void mark(Vertex v) { mark_stamp_[static_cast<std::size_t>(v)] = generation_; }
  bool marked(Vertex v) const {
    return mark_stamp_[static_cast<std::size_t>(v)] == generation_;
  }

  // ---- chain position index (for retreat-order comparisons) ---------------
  void index_chain(const std::vector<Vertex>& chain) {
    ++pos_generation_;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      pos_stamp_[static_cast<std::size_t>(chain[i])] = pos_generation_;
      pos_val_[static_cast<std::size_t>(chain[i])] = static_cast<std::int32_t>(i);
    }
  }
  std::int32_t chain_pos(Vertex v) const {
    return pos_stamp_[static_cast<std::size_t>(v)] == pos_generation_
               ? pos_val_[static_cast<std::size_t>(v)]
               : -1;
  }

  // ---- piece-id map (direct grouping in finish_traversal) ------------------
  void begin_piece_map() { ++piece_generation_; }
  void map_piece(Vertex v, std::int32_t piece) {
    piece_stamp_[static_cast<std::size_t>(v)] = piece_generation_;
    piece_val_[static_cast<std::size_t>(v)] = piece;
  }
  std::int32_t piece_at(Vertex v) const {
    return piece_stamp_[static_cast<std::size_t>(v)] == piece_generation_
               ? piece_val_[static_cast<std::size_t>(v)]
               : -1;
  }

  // ---- visited scratch (serial component finish) ---------------------------
  void begin_visit() { ++visit_generation_; }
  void visit(Vertex v) { visit_stamp_[static_cast<std::size_t>(v)] = visit_generation_; }
  bool visited(Vertex v) const {
    return visit_stamp_[static_cast<std::size_t>(v)] == visit_generation_;
  }
  // Reusable DFS stack of (vertex, base cursor, extra cursor) frames.
  struct DfsFrame {
    Vertex v;
    std::uint32_t base_i;
    std::uint32_t extra_i;
  };
  std::vector<DfsFrame>& dfs_scratch() { return dfs_scratch_; }

  // ---- query batch accounting ----------------------------------------------
  void begin_step() { step_batches_ = 0; }
  void count_batch() { ++step_batches_; }
  std::uint32_t step_batches() const { return step_batches_; }

 private:
  const TreeIndex& cur_;
  const OracleView view_;  // by value: the decompose memo is per-worker
  RerootStats stats_;      // per-worker; merged by the engine
  std::vector<std::int32_t> mark_stamp_, pos_stamp_, pos_val_, visit_stamp_;
  std::vector<std::int32_t> piece_stamp_, piece_val_;
  std::vector<DfsFrame> dfs_scratch_;
  std::int32_t generation_ = 0;
  std::int32_t pos_generation_ = 0;
  std::int32_t visit_generation_ = 0;
  std::int32_t piece_generation_ = 0;
  std::uint32_t step_batches_ = 0;
};

// Round-dispatch override for benchmarks and tests: while set, every round
// with at least two components fans out to a team of two or more workers,
// whatever its slack (Rerooter::kParallelRoundWork). BM_RerootRound times
// the team below the crossover with it, and the determinism pins keep small
// scenario streams on the team with it. Results are identical either way;
// it is not a user option.
bool round_team_forced();
void set_force_round_team(bool on);

// Plans one traversal for the component according to the strategy.
TraversalPlan plan_traversal(EngineCtx& ctx, const Component& comp,
                             RerootStrategy strategy);

// Best edge from the given pieces to the chain, preferring endpoints with
// the LARGEST chain position (= earliest DFS retreat = "lowest on p*");
// ties resolve by the total order (pos desc, u asc, v asc), so the winner
// never depends on piece-iteration order. Requires ctx.index_chain(chain)
// to have been called. Returns the edge and the position of its chain
// endpoint. One query batch.
struct ChainHit {
  Edge edge;
  std::int32_t pos = -1;
  bool valid() const { return pos >= 0; }
};
ChainHit best_edge_to_chain(EngineCtx& ctx, std::span<const Piece> pieces,
                            const std::vector<Vertex>& chain,
                            const std::vector<Run>& runs);

}  // namespace pardfs::detail
