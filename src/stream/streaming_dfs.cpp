#include "stream/streaming_dfs.hpp"

#include "util/check.hpp"

namespace pardfs::stream {
namespace {

// Best-so-far update for one query given one streamed edge.
void feed(const TreeIndex& index, const StreamQuery& q, const Edge& e,
          std::optional<Edge>& best) {
  auto on_segment = [&](Vertex x) {
    return index.in_forest(x) && index.is_ancestor(q.seg_top, x) &&
           index.is_ancestor(x, q.seg_bottom);
  };
  auto in_source = [&](Vertex x) {
    if (!index.in_forest(x)) return false;
    switch (q.source_kind) {
      case StreamQuery::SourceKind::kVertex:
        return x == q.source_a;
      case StreamQuery::SourceKind::kSubtree:
        return index.is_ancestor(q.source_a, x);
      case StreamQuery::SourceKind::kSegment:
        return index.is_ancestor(q.source_a, x) && index.is_ancestor(x, q.source_b);
    }
    return false;
  };
  for (const Edge& oriented : {e, e.reversed()}) {
    if (!in_source(oriented.u) || !on_segment(oriented.v)) continue;
    if (!best) {
      best = oriented;
      continue;
    }
    const std::int32_t np = index.post(oriented.v);
    const std::int32_t bp = index.post(best->v);
    const bool wins = q.nearest_top ? (np > bp || (np == bp && oriented.u < best->u))
                                    : (np < bp || (np == bp && oriented.u < best->u));
    if (wins) best = oriented;
  }
}

}  // namespace

std::vector<std::optional<Edge>> answer_queries_one_pass(
    EdgeStream& stream, const TreeIndex& index, std::span<const StreamQuery> queries) {
  // O(1) state per query — the semi-streaming memory budget for a set of
  // O(n) independent queries is O(n).
  std::vector<std::optional<Edge>> best(queries.size());
  stream.for_each_edge([&](const Edge& e) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      feed(index, queries[i], e, best[i]);
    }
  });
  return best;
}

StreamingDfs::StreamingDfs(EdgeStream& stream, Vertex n) : stream_(stream), dfs_([&] {
  // Materialize the graph once for the static build; the textbook streaming
  // construction adds one vertex per pass, so we charge n passes.
  Graph g(n);
  stream.for_each_edge([&](const Edge& e) { g.add_edge(e.u, e.v); });
  return g;
}()) {
  static_build_passes_ = static_cast<std::uint64_t>(n);
}

void StreamingDfs::apply(const GraphUpdate& update) {
  const Vertex added = dfs_.apply(update);
  // Keep the external stream in sync with the update.
  switch (update.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      stream_.insert_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kDeleteEdge:
      stream_.delete_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kInsertVertex:
      for (const Vertex u : update.neighbors) stream_.insert_edge(u, added);
      break;
    case GraphUpdate::Kind::kDeleteVertex:
      stream_.delete_vertex(update.u);
      break;
  }
  // Pass ledger: the reduction performs O(1) sets of independent queries
  // (Theorem 2) — charge 2 (its query set + the back-edge/LCA checks are
  // tree-local and free); the rerooting performs one set per counted batch
  // (Theorem 3). Each set is answerable by answer_queries_one_pass, which
  // the test suite verifies against D.
  passes_last_ = 2 + dfs_.last_stats().query_batches;
  passes_total_ += passes_last_;
}

}  // namespace pardfs::stream
