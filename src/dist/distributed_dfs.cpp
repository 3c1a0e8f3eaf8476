#include "dist/distributed_dfs.hpp"

#include <algorithm>
#include <vector>

namespace pardfs::dist {
namespace {

// A candidate edge packed into one aggregate word so that the plain
// word-wise max reproduces the oracle's deterministic tie-breaking
// (better target first, then smaller source id). A query's targets lie on
// one tree path, where post order is pre order reversed, so the word keys
// targets by pre: nearest the top is the smallest pre. Zero means "no
// candidate" — the high half is biased so any real candidate is nonzero.
constexpr std::uint64_t kIdBias = 0x7fffffff;

std::uint64_t encode_candidate(std::int32_t target_pre, Vertex source,
                               bool nearest_top) {
  const std::uint64_t hi =
      nearest_top ? kIdBias - static_cast<std::uint64_t>(target_pre)
                  : static_cast<std::uint64_t>(target_pre) + 1;
  const std::uint64_t lo = kIdBias - static_cast<std::uint64_t>(source);
  return (hi << 32) | lo;
}

Edge decode_candidate(std::uint64_t word, const TreeIndex& index,
                      bool nearest_top) {
  const std::uint64_t hi = word >> 32;
  const std::uint64_t lo = word & 0xffffffffu;
  const std::int32_t pre = nearest_top ? static_cast<std::int32_t>(kIdBias - hi)
                                       : static_cast<std::int32_t>(hi - 1);
  const Vertex source = static_cast<Vertex>(kIdBias - lo);
  return Edge{source, index.vertex_at_pre(pre)};
}

// Best candidate of one source vertex: scan its own adjacency for
// neighbors on the query segment — exactly what the processor at `v` can
// compute locally in zero rounds.
std::uint64_t local_candidate(const Graph& g, const TreeIndex& index, Vertex v,
                              const stream::StreamQuery& q) {
  std::uint64_t best = 0;
  for (const Vertex y : g.neighbors(v)) {
    if (!index.in_forest(y)) continue;
    if (!index.is_ancestor(q.seg_top, y) || !index.is_ancestor(y, q.seg_bottom)) {
      continue;
    }
    best = std::max(best, encode_candidate(index.pre(y), v, q.nearest_top));
  }
  return best;
}

template <typename Fn>
void for_each_source(const TreeIndex& index, const stream::StreamQuery& q,
                     Fn&& fn) {
  switch (q.source_kind) {
    case stream::StreamQuery::SourceKind::kVertex:
      fn(q.source_a);
      break;
    case stream::StreamQuery::SourceKind::kSubtree:
      for (const Vertex v : index.subtree_span(q.source_a)) fn(v);
      break;
    case stream::StreamQuery::SourceKind::kSegment:
      // source_a = segment top, source_b = segment bottom.
      for (const Vertex v : index.path_vertices(q.source_b, q.source_a)) fn(v);
      break;
  }
}

}  // namespace

std::vector<std::optional<Edge>> answer_queries_distributed(
    CongestSimulator& sim, const BfsTree& tree, const Graph& g,
    const TreeIndex& index, std::span<const stream::StreamQuery> queries) {
  const std::size_t nq = queries.size();
  std::vector<std::vector<std::uint64_t>> contrib(tree.depth.size());
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const stream::StreamQuery& q = queries[qi];
    for_each_source(index, q, [&](Vertex v) {
      if (!tree.contains(v)) return;
      const std::uint64_t word = local_candidate(g, index, v, q);
      if (word == 0) return;
      auto& words = contrib[static_cast<std::size_t>(v)];
      if (words.size() < nq) words.resize(nq, 0);
      words[qi] = std::max(words[qi], word);
    });
  }
  const auto combined = sim.aggregate(
      tree, contrib,
      [](std::size_t, std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  std::vector<std::optional<Edge>> out(nq);
  for (std::size_t qi = 0; qi < nq && qi < combined.size(); ++qi) {
    if (combined[qi] != 0) {
      out[qi] = decode_candidate(combined[qi], index, queries[qi].nearest_top);
    }
  }
  return out;
}

DistributedDfs::DistributedDfs(Graph g, std::int32_t message_words)
    // serial_cutoff = 0: the CONGEST cost mapping derives rounds from the
    // engine's query-set structure; a Brent-style serial completion has no
    // zero-round distributed counterpart.
    : dfs_(std::move(g), RerootStrategy::kPaper, nullptr, 0, 0) {
  const Graph& gr = dfs_.graph();
  if (message_words > 0) {
    b_ = message_words;
    return;
  }
  // B = n/2D of the dominant component (the paper's network is connected;
  // on a forest the largest component is the honest proxy). Fixed at
  // construction: message size is a parameter of the model, not of the
  // evolving graph.
  CongestSimulator probe(gr, 1);
  std::vector<bool> seen(static_cast<std::size_t>(gr.capacity()), false);
  Vertex best_n = 0;
  std::int32_t best_h = 0;
  for (Vertex v = 0; v < gr.capacity(); ++v) {
    if (!gr.is_alive(v) || seen[static_cast<std::size_t>(v)]) continue;
    const BfsTree t = probe.build_bfs_tree(v);
    for (std::size_t w = 0; w < t.depth.size(); ++w) {
      if (t.depth[w] >= 0) seen[w] = true;
    }
    if (t.num_nodes > best_n) {
      best_n = t.num_nodes;
      best_h = t.height;
    }
  }
  b_ = std::max<std::int32_t>(1, best_n / (2 * std::max<std::int32_t>(1, best_h)));
}

void DistributedDfs::apply(const GraphUpdate& update) {
  // The component whose network pays for this update, anchored by a vertex
  // that survives the mutation.
  Vertex anchor = kNullVertex;
  switch (update.kind) {
    case GraphUpdate::Kind::kInsertEdge:
    case GraphUpdate::Kind::kDeleteEdge:
      anchor = update.u;
      break;
    case GraphUpdate::Kind::kDeleteVertex: {
      const auto former = graph().neighbors(update.u);
      if (!former.empty()) anchor = former.front();
      break;
    }
    case GraphUpdate::Kind::kInsertVertex:
      break;  // the new vertex id is known only after the mutation
  }

  const Vertex added = dfs_.apply(update);
  if (added != kNullVertex) anchor = added;

  last_ = UpdateCost{};
  last_.query_sets = dfs_.last_stats().query_batches;
  if (anchor != kNullVertex && graph().is_alive(anchor)) {
    CongestSimulator sim(graph(), b_);
    const BfsTree tree = sim.build_bfs_tree(dfs_.root_of(anchor));
    last_.bfs_height = tree.height;
    if (tree.num_nodes > 1) {
      // Announce the update (O(1) words), then pay one convergecast +
      // broadcast per query set; each set may carry up to one word per
      // vertex of the component (the Theorem 16 schedule).
      sim.broadcast(tree, 1);
      for (std::uint64_t s = 0; s < last_.query_sets; ++s) {
        sim.broadcast(tree, tree.num_nodes);  // convergecast up
        sim.broadcast(tree, tree.num_nodes);  // result back down
      }
    }
    last_.rounds = sim.rounds();
    last_.messages = sim.messages();
  }
  total_rounds_ += last_.rounds;
  total_messages_ += last_.messages;
}

}  // namespace pardfs::dist
