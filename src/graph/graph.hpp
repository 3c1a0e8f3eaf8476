// Dynamic undirected graph substrate.
//
// Supports the paper's extended update model: edge insert/delete, vertex
// delete, and vertex insert *with an arbitrary set of incident edges*.
// Vertex ids are dense 0..capacity-1; deleted vertices leave a hole (the
// id is not recycled) so that ids remain stable across an update sequence.
//
// Adjacency is stored as per-vertex vectors. Deletion is O(degree) and
// order-preserving: the remaining neighbours keep their relative order, so a
// row is a pure function of its update history. The DFS forests depend on
// row order, and the byte-identical-at-any-shard-count argument (DESIGN.md,
// "Determinism") relies on it. Parallel edges and self-loops are rejected
// (the DFS-tree machinery assumes a simple graph, as does the paper).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge.hpp"

namespace pardfs {

// The paper's update model, shared by every layer: generators, the graph,
// the dynamic engine, batches, streams and the service.
struct GraphUpdate {
  enum class Kind : std::uint8_t {
    kInsertEdge,
    kDeleteEdge,
    kInsertVertex,
    kDeleteVertex,
  };
  Kind kind = Kind::kInsertEdge;
  Vertex u = kNullVertex;  // edge endpoint / deleted vertex
  Vertex v = kNullVertex;  // edge endpoint
  std::vector<Vertex> neighbors;  // kInsertVertex: incident edge set

  static GraphUpdate insert_edge(Vertex u, Vertex v) {
    return {Kind::kInsertEdge, u, v, {}};
  }
  static GraphUpdate delete_edge(Vertex u, Vertex v) {
    return {Kind::kDeleteEdge, u, v, {}};
  }
  static GraphUpdate insert_vertex(std::vector<Vertex> neighbors) {
    return {Kind::kInsertVertex, kNullVertex, kNullVertex, std::move(neighbors)};
  }
  static GraphUpdate delete_vertex(Vertex v) {
    return {Kind::kDeleteVertex, v, kNullVertex, {}};
  }
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(Vertex n) : adjacency_(static_cast<std::size_t>(n)),
                             alive_(static_cast<std::size_t>(n), 1),
                             num_alive_(n) {}

  // ---- capacity / liveness -------------------------------------------------
  Vertex capacity() const { return static_cast<Vertex>(adjacency_.size()); }
  Vertex num_vertices() const { return num_alive_; }
  std::int64_t num_edges() const { return num_edges_; }
  bool is_alive(Vertex v) const {
    return v >= 0 && v < capacity() && alive_[static_cast<std::size_t>(v)] != 0;
  }
  // Zero-copy liveness bitmap, indexed by vertex id (1 = alive). Feeds
  // TreeIndex::build directly, so per-update consumers need not materialize
  // their own O(n) copy.
  std::span<const std::uint8_t> alive() const { return alive_; }

  // ---- updates ---------------------------------------------------------—--
  // Adds an isolated vertex; returns its id.
  Vertex add_vertex();
  // Adds a vertex with an arbitrary set of incident edges (paper's extended
  // vertex insertion). Neighbors must be alive and distinct.
  Vertex add_vertex(std::span<const Vertex> neighbors);
  // Removes a vertex and all incident edges.
  void remove_vertex(Vertex v);
  // Returns false if the edge already exists.
  bool add_edge(Vertex u, Vertex v);
  // Returns false if the edge does not exist.
  bool remove_edge(Vertex u, Vertex v);
  // Applies one update through the calls above. Returns the new id for a
  // vertex insertion, kNullVertex otherwise.
  Vertex apply(const GraphUpdate& update);

  bool has_edge(Vertex u, Vertex v) const;

  // ---- sharding support (service/shard_router) -----------------------------
  // Several sharded graphs share one global id space; each owns only the
  // vertices of its components and keeps every other id as a dead hole.
  //
  // Extends the id space to `new_capacity` with dead vertices (empty
  // adjacency, not alive). Ids below the current capacity are untouched;
  // no-op when not larger.
  void pad_to(Vertex new_capacity);
  // Revives `vertices` (currently dead, within capacity) with the given
  // adjacency rows, verbatim. The set must be edge-closed (every row
  // endpoint inside it): the use case is transplanting whole connected
  // components between shards, where preserving exact row order keeps the
  // DFS forests byte-identical to a single-shard history (DESIGN.md §12).
  void adopt_component(std::span<const Vertex> vertices,
                       std::vector<std::vector<Vertex>> rows);
  // Inverse of adopt_component: removes the (edge-closed) vertex set and
  // returns its adjacency rows verbatim, parallel to `vertices`.
  std::vector<std::vector<Vertex>> extract_component(
      std::span<const Vertex> vertices);

  // ---- access ---------------------------------------------------------—--
  std::span<const Vertex> neighbors(Vertex v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }
  Vertex degree(Vertex v) const {
    return static_cast<Vertex>(adjacency_[static_cast<std::size_t>(v)].size());
  }

  // All edges as (u < v) pairs, in adjacency order. O(m).
  std::vector<Edge> edges() const;

 private:
  void check_alive(Vertex v) const;

  std::vector<std::vector<Vertex>> adjacency_;
  std::vector<std::uint8_t> alive_;  // byte bitmap: spannable, parallel-scan friendly
  Vertex num_alive_ = 0;
  std::int64_t num_edges_ = 0;
};

}  // namespace pardfs
