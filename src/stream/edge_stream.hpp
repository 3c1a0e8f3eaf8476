// Semi-streaming substrate (paper §6.1): the input graph is only accessible
// as a stream of edges; the algorithm holds O(n) working memory and pays one
// *pass* to scan the stream.
//
// EdgeStream models the external input: a sequence of edges, mutated by
// graph updates (the stream reflects the current graph), with an explicit
// pass counter. Algorithms must funnel every access through for_each_edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge.hpp"

namespace pardfs::stream {

class EdgeStream {
 public:
  EdgeStream() = default;
  explicit EdgeStream(std::vector<Edge> edges) : edges_(std::move(edges)) {}

  // One pass over the entire stream. Fn is a template parameter so the
  // per-edge callback inlines (a pass touches all m edges).
  template <typename Fn>
  void for_each_edge(Fn&& fn) {
    ++passes_;
    for (const Edge& e : edges_) fn(e);
  }

  std::uint64_t passes() const { return passes_; }
  std::size_t size() const { return edges_.size(); }

  // ---- updates (maintaining the external input; not counted as passes) ----
  void insert_edge(Vertex u, Vertex v) { edges_.push_back({u, v}); }
  void delete_edge(Vertex u, Vertex v);
  void delete_vertex(Vertex v);

 private:
  std::vector<Edge> edges_;
  std::uint64_t passes_ = 0;
};

// A single independent query against the stream: among the edges from the
// source set to the base segment, the one nearest the requested end of the
// segment (the streaming stand-in for one D query). The source set and the
// segment are described by O(1) words each plus the O(n)-space tree index.
struct StreamQuery {
  enum class SourceKind : std::uint8_t { kVertex, kSubtree, kSegment };
  SourceKind source_kind = SourceKind::kVertex;
  Vertex source_a = kNullVertex;  // vertex / subtree root / segment top
  Vertex source_b = kNullVertex;  // segment bottom (kSegment only)
  Vertex seg_top = kNullVertex;
  Vertex seg_bottom = kNullVertex;
  bool nearest_top = true;
};

}  // namespace pardfs::stream
