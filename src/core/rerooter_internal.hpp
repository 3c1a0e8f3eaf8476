// Internal plumbing shared by rerooter.cpp (engine) and traversals.cpp
// (strategy). Not part of the public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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

// Storage for the non-tree rows one worker fills: fixed chunks that never
// move, so a row stays valid for the rest of the engine pass while later
// rounds read it on any worker.
class RowArena {
 public:
  // Room for up to n entries; commit() then keeps the ones used.
  Vertex* reserve(std::size_t n) {
    if (n > left_) {
      left_ = std::max(kChunk, n);
      chunks_.push_back(std::make_unique_for_overwrite<Vertex[]>(left_));
      next_ = chunks_.back().get();
    }
    return next_;
  }
  void commit(std::size_t used) {
    next_ += used;
    left_ -= used;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 14;
  std::vector<std::unique_ptr<Vertex[]>> chunks_;
  Vertex* next_ = nullptr;
  std::size_t left_ = 0;
};

// The current graph's non-tree edges, one row per vertex, for one engine
// pass: row(v) lists v's current neighbours that are neither tree
// neighbours nor proper ancestors of v in `cur` — each back edge once, at
// its upper end (an inserted cross edge at both ends). Leftover grouping
// (group_leftovers) unites the pieces a tree edge joins structurally, so
// these rows are all it still has to read. A row is read from the oracle's
// current adjacency (so fault-tolerant and raw engines take the same path)
// the first time a sweep needs it, into the sweeping worker's arena, and
// kept for the rest of the pass: later sweeps of the same vertex, on any
// worker, read only its non-tree entries. Components of a round are
// vertex-disjoint and a step sweeps only its own component's vertices, so
// within a round each slot has one writer and no reader on another worker;
// the round barrier orders it before later rounds' reads. A pass that never
// sweeps allocates nothing.
class NonTreeRows {
 public:
  NonTreeRows(const TreeIndex& cur, const AdjacencyOracle& oracle)
      : cur_(cur), oracle_(oracle) {}

  // Sizes the per-vertex slots on the first call from any thread.
  void ensure_slots() {
    std::call_once(slots_made_, [this] {
      slots_.assign(static_cast<std::size_t>(cur_.capacity()), {nullptr, 0});
    });
  }

  // v's row, filled into `arena` on first use. Requires ensure_slots().
  std::span<const Vertex> row(Vertex v, RowArena& arena) {
    const Slot& slot = slots_[static_cast<std::size_t>(v)];
    if (slot.data == nullptr) fill(v, arena);
    return {slot.data, slot.count};
  }

 private:
  // Reads v's full current adjacency once, charged to the cost model like
  // any adjacency sweep.
  void fill(Vertex v, RowArena& arena);

  struct Slot {
    const Vertex* data;  // null until filled
    std::size_t count;
  };
  const TreeIndex& cur_;
  const AdjacencyOracle& oracle_;
  std::once_flag slots_made_;
  std::vector<Slot> slots_;
};

// Engine context handed to the planner: tree, oracle view, scratch marking
// arrays (stamped, O(1) reset), per-step query-batch counter and stats.
//
// One context belongs to ONE worker thread: components of a round step
// concurrently (rerooter.cpp), and everything mutable a step touches — the
// marking scratch, the chain-position index, the step counter, the stats and
// the oracle view's path-decomposition memo, the arena of rows it fills —
// lives here. The one exception is the pass's NonTreeRows, whose slots a
// step fills only for its own component's vertices. The view is therefore
// held by value: the copy inherits the caller's memo (warm from the
// preceding reduction) and grows its own entries without synchronizing.
// Per-worker stats are merged by the engine at the end of the run; all
// counters are sums (or max), so the merge is order-independent.
class EngineCtx {
 public:
  // The mark and visit slots span max(cur.capacity(), `mark_capacity`): a
  // recomputed component's members include vertices its batch inserted,
  // beyond the index (Component::new_vertices); pass the graph's capacity.
  EngineCtx(const TreeIndex& cur, const OracleView& view,
            NonTreeRows* rows = nullptr, Vertex mark_capacity = 0)
      : cur_(cur), view_(view), rows_(rows) {
    const auto marks =
        static_cast<std::size_t>(std::max(cur.capacity(), mark_capacity));
    mark_stamp_.assign(marks, 0);
    pos_stamp_.assign(static_cast<std::size_t>(cur.capacity()), 0);
    pos_val_.assign(static_cast<std::size_t>(cur.capacity()), -1);
    visit_stamp_.assign(marks, 0);
    piece_slot_.assign(static_cast<std::size_t>(cur.capacity()), {0, -1});
  }

  const TreeIndex& cur() const { return cur_; }
  // Ids below this have mark and visit slots.
  Vertex mark_capacity() const { return static_cast<Vertex>(mark_stamp_.size()); }
  const OracleView& view() const { return view_; }
  // The engine pass's shared non-tree rows, and this worker's arena for the
  // rows it fills.
  NonTreeRows& rows() {
    rows_->ensure_slots();
    return *rows_;
  }
  RowArena& row_arena() { return row_arena_; }
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

  // ---- piece-id map (leftover grouping in group_leftovers) -----------------
  void begin_piece_map() { ++piece_generation_; }
  void map_piece(Vertex v, std::int32_t piece) {
    piece_slot_[static_cast<std::size_t>(v)] = {piece_generation_, piece};
  }
  std::int32_t piece_at(Vertex v) const {
    const PieceSlot slot = piece_slot_[static_cast<std::size_t>(v)];
    return slot.stamp == piece_generation_ ? slot.piece : -1;
  }

  // ---- visited scratch (serial component finish) ---------------------------
  void begin_visit() { ++visit_generation_; }
  void visit(Vertex v) { visit_stamp_[static_cast<std::size_t>(v)] = visit_generation_; }
  bool visited(Vertex v) const {
    return visit_stamp_[static_cast<std::size_t>(v)] == visit_generation_;
  }
  // Reusable DFS stack of (vertex, adjacency-row cursor) frames.
  struct DfsFrame {
    Vertex v;
    std::uint32_t row_i;
  };
  std::vector<DfsFrame>& dfs_scratch() { return dfs_scratch_; }

  // ---- query batch accounting ----------------------------------------------
  void begin_step() { step_batches_ = 0; }
  void count_batch() { ++step_batches_; }
  std::uint32_t step_batches() const { return step_batches_; }

 private:
  const TreeIndex& cur_;
  const OracleView view_;  // by value: the decompose memo is per-worker
  NonTreeRows* rows_;       // shared by the pass's workers
  RowArena row_arena_;      // rows this worker filled; read by any worker
  RerootStats stats_;      // per-worker; merged by the engine
  std::vector<std::int32_t> mark_stamp_, pos_stamp_, pos_val_, visit_stamp_;
  // Stamp and piece id side by side: a grouping lookup is one load.
  struct PieceSlot {
    std::int32_t stamp;
    std::int32_t piece;
  };
  std::vector<PieceSlot> piece_slot_;
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

// Groups a traversal's leftover pieces into the components of the unvisited
// graph and appends one Component per group to `next`, in order of each
// group's first piece. A group enters at the edge to plan.pstar that the DFS
// retreat meets first: the largest chain position, ties broken by
// (u asc, v asc) — its entry is the piece-side endpoint u, its
// attach_parent the chain endpoint. New components inherit comp.budget.
// Requires a non-empty plan.leftovers; counts the step's query batches (one
// for the grouping if any piece is a path, one per monotone run of p* for
// the attachment).
void group_leftovers(EngineCtx& ctx, const Component& comp,
                     const TraversalPlan& plan, std::vector<Component>& next);

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
