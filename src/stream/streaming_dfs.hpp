// Semi-streaming fully dynamic DFS (paper Theorem 15).
//
// The algorithm keeps only the current and partially-built DFS trees in
// memory (O(n)); the graph lives in the edge stream. Every *set of
// independent queries* on D is answered by ONE pass over the stream (each
// pass keeps one partial answer per query, O(n) space for the O(n) queries
// of a set). With O(log^2 n) sets per update (Theorem 3), an update costs
// O(log^2 n) passes.
//
// Implementation note: the rerooting engine is shared with the parallel
// build; its per-round "query batch" counter is exactly the number of query
// sets, i.e. the number of passes a streaming execution performs. The
// single-pass evaluator answer_queries_one_pass() is implemented for real
// and verified equivalent to D in the test suite; the engine uses the
// in-memory oracle as an evaluation shortcut with identical results, while
// the pass ledger charges one pass per batch. See DESIGN.md §6.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/graph.hpp"
#include "stream/edge_stream.hpp"
#include "tree/tree_index.hpp"

namespace pardfs::stream {

// Answers a set of independent queries in ONE pass over the stream.
// `index` is the O(n) tree state; results[i] is the best edge for query i.
std::vector<std::optional<Edge>> answer_queries_one_pass(
    EdgeStream& stream, const TreeIndex& index, std::span<const StreamQuery> queries);

class StreamingDfs {
 public:
  // n: number of vertices. The stream holds the initial edges; the initial
  // tree is built with O(n) passes (one per tree vertex level would be the
  // trivial bound; we charge the textbook n passes for the static build,
  // which is outside the per-update claim).
  StreamingDfs(EdgeStream& stream, Vertex n);

  void apply(const GraphUpdate& update);

  std::span<const Vertex> parent() const { return dfs_.parent(); }
  const Graph& graph() const { return dfs_.graph(); }

  // Pass accounting for the LAST update: reduction passes + one pass per
  // query set of the rerooting (Theorem 15's O(log^2 n)).
  std::uint64_t passes_last_update() const { return passes_last_; }
  std::uint64_t passes_total() const { return passes_total_; }
  std::uint64_t static_build_passes() const { return static_build_passes_; }

 private:
  EdgeStream& stream_;
  DynamicDfs dfs_;
  std::uint64_t passes_last_ = 0;
  std::uint64_t passes_total_ = 0;
  std::uint64_t static_build_passes_ = 0;
};

}  // namespace pardfs::stream
