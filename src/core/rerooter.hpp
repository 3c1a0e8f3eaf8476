// The parallel rerooting algorithm (paper §4) — the core contribution.
//
// Rerooting a subtree T(r0) at a new root r* proceeds in rounds. Every
// unvisited component advances once per round by one traversal:
//   * disintegrating traversal  — C1-style components; walks r_c..v_H where
//     v_H is the smallest subtree heavier than the phase threshold, so every
//     leftover subtree at most halves;
//   * path halving              — r_c on the component path; walks to the
//     farther end, halving the leftover path;
//   * disconnecting traversal   — r_c in a light subtree τ: walks through τ
//     into p_c sweeping over all τ→p_c edges, detaching τ's remains from the
//     leftover path;
//   * heavy subtree traversal   — r_c inside a heavy subtree: scenarios
//     l / p / r with the paper's applicability conditions (Lemma 2). The
//     rare special case (and any degenerate scenario input) falls back to a
//     safe disintegrating traversal — correctness is engine-guaranteed, only
//     the round bound can slip; the fallback counter is reported.
//
// Correct-by-construction engine: whatever path a strategy picks, the
// residual pieces are grouped into components by the edges between them
// (tree edges structurally, back edges by one sweep) and each new
// component re-enters through its edge to the traversed path that the DFS
// would retreat past first (the components property, Lemma 1). The final
// parent array is therefore a valid DFS tree for any traversal choice.
//
// Execution model: the rounds are not only the PRAM accounting unit — a
// round with parallel slack steps its components concurrently on a real
// worker team (pram::parallel_for_workers), each worker owning its scratch
// and oracle view; a round whose components other than the largest hold
// less than kParallelRoundWork vertices steps on the calling thread, since
// waking the team would cost more than it saves. Outputs land in
// per-component slots merged in component order, so the tree, the
// new-component order and the stats are byte-identical at any thread count
// and either way a round runs. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/components.hpp"
#include "graph/edge.hpp"
#include "pram/cost_model.hpp"
#include "tree/tree_index.hpp"

namespace pardfs {

struct RerootRequest {
  Vertex subtree_root = kNullVertex;   // current-tree subtree to reroot
  Vertex new_root = kNullVertex;       // r*: must lie inside that subtree
  Vertex attach_parent = kNullVertex;  // parent of new_root in T*; null = tree root
};

enum class RerootStrategy : std::uint8_t {
  kPaper,        // full phase/stage machinery (this paper)
  kSequentialL,  // always walk r_c to the subtree root — models the
                 // sequential rerooting of Baswana et al. [6]; Θ(n) rounds
                 // on adversarial inputs (ablation baseline)
};

struct RerootStats {
  std::uint64_t global_rounds = 0;    // engine rounds (all components step once)
  std::uint64_t query_batches = 0;    // sets of independent D queries (Thm 3 counts)
  std::uint64_t components_processed = 0;
  std::uint64_t vertices_traversed = 0;
  std::uint64_t disintegrating = 0;
  std::uint64_t path_halving = 0;
  std::uint64_t disconnecting = 0;
  std::uint64_t heavy_l = 0;
  std::uint64_t heavy_p = 0;
  std::uint64_t heavy_r = 0;
  std::uint64_t heavy_special = 0;  // special-case hits (handled by fallback)
  std::uint64_t fallbacks = 0;      // degenerate inputs absorbed by DisInt
  std::uint64_t serial_finishes = 0;  // sub-cutoff components finished directly
  // Batch components over the work cap (Component::recompute), finished
  // with one DFS in round 1 instead of the round machinery.
  std::uint64_t recomputes = 0;
  // Non-tree adjacency entries read by the leftover-grouping sweeps (tree
  // edges between pieces are united without reading a row).
  std::uint64_t grouping_scanned = 0;
  std::uint32_t max_phase = 0;

  void accumulate(const RerootStats& other);
};

class Rerooter {
 public:
  // `num_threads` caps the worker team stepping a round's components
  // concurrently (0 = the pram facade default). Whatever its size, a team
  // takes only the rounds with parallel slack (kParallelRoundWork); every
  // other round steps on the calling thread. The
  // result — final parent array, new-component order and every RerootStats
  // counter — is identical at any thread count: per-component outputs go
  // into disjoint slots merged in component order, and every tie inside a
  // step breaks on a total order.
  // Only the logical cost model's semantics (rounds, not threads) are
  // recorded, so the knob is pure wall-clock.
  //
  // `serial_cutoff` (0 = disabled): a component whose total vertex count is
  // at most the cutoff is finished by ONE logical processor as a direct DFS
  // of its induced subgraph — Brent-style processor reallocation. The paper
  // splits components with query batches until they are empty; once a
  // component is below polylog size, a single processor finishes it within
  // the same O(polylog) depth budget without any further query rounds, and
  // serially it skips the entire per-round query machinery. Any DFS of the
  // component rooted at its entry is a valid completion (the components
  // property, Lemma 1: all external edges lead to ancestors of the entry).
  // A cutoff needs `graph`: neighbors enumerate in its adjacency-row order —
  // a pure function of the component's update history, so two engines
  // holding the same component produce the same completion even with
  // different epoch/rebase histories (what makes sharded serving
  // byte-identical to unsharded; see service/shard_router.hpp). DynamicDfs
  // passes default_serial_cutoff(); raw engine users default to the pure
  // paper machinery.
  // The same finish also takes every component the batch reduction marked
  // `recompute` (the work cap, core/batch_reduction.hpp), whatever its size,
  // counted as RerootStats::recomputes. The reduction marks components only
  // for callers that run a cutoff, so 0 turns both finishes off.
  Rerooter(const TreeIndex& current, const OracleView& view, RerootStrategy strategy,
           pram::CostModel* cost = nullptr, int num_threads = 0,
           std::int32_t serial_cutoff = 0, const Graph* graph = nullptr);

  // Smallest off-critical-path work (vertices in a round's components other
  // than the largest) at which a team steps a round on the workers; below it
  // the team's wake-up and per-worker scratch cost more than the slack
  // saves. Measured with BM_RerootRound (bench_parallel, Release, 4-vCPU
  // Xeon; rows committed in BENCH_parallel.json): one round stepped on the
  // calling thread vs a forced 4-worker team, median microseconds per round,
  // for a 4096-vertex component plus three satellites (A) and for sixteen
  // equal components (B):
  //   work    A: serial vs team    B: serial vs team
  //    192         99 vs 100             24 vs  51
  //    768        113 vs 109             38 vs  37
  //   1536        121 vs 109             49 vs  43
  //   3072        144 vs 100             71 vs  49
  //   6144        210 vs  99            145 vs  65
  //  12288        274 vs 121            261 vs 104
  // Neither shape gains 1.2x from the team below 2048; both gain it at 3072.
  // Real rounds agree: timed one by one while replaying a 2^14 dynamic_map
  // stream, rounds under 2048 ran 1.4-2.6x slower on the team and rounds
  // above it faster.
  static constexpr std::int64_t kParallelRoundWork = 2048;

  // Θ(log² n) — the depth one serially-finished component may add.
  static std::int32_t default_serial_cutoff(Vertex capacity);

  // Executes all reroots (they must target disjoint subtrees). parent_out
  // must be pre-filled with the current tree's parent array; entries inside
  // each rerooted subtree are overwritten.
  RerootStats run(std::span<const RerootRequest> requests,
                  std::span<Vertex> parent_out);

  // Batch entry point (paper's k-update handling, Theorem 13): seeds the
  // engine with pre-built components — each a set of vertex-disjoint pieces
  // of the current forest, edge-connected in the updated graph — instead of
  // single-subtree reroot requests. Used by the combined batch reduction
  // (core/batch_reduction); every piece vertex receives a new parent. With a
  // serial cutoff, a component marked `recompute` is finished in round 1.
  RerootStats run_components(std::vector<Component> initial,
                             std::span<Vertex> parent_out);

 private:
  const TreeIndex& cur_;
  const OracleView& view_;
  RerootStrategy strategy_;
  pram::CostModel* cost_;
  int num_threads_;
  std::int32_t serial_cutoff_;
  const Graph* graph_;
};

}  // namespace pardfs
