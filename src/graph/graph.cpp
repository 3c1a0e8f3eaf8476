#include "graph/graph.hpp"

#include <algorithm>

#include "pram/parallel.hpp"
#include "pram/scan.hpp"
#include "util/check.hpp"

namespace pardfs {

void Graph::check_alive(Vertex v) const {
  PARDFS_CHECK_MSG(is_alive(v), "vertex is not alive");
}

Vertex Graph::add_vertex() {
  adjacency_.emplace_back();
  alive_.push_back(1);
  ++num_alive_;
  return static_cast<Vertex>(adjacency_.size() - 1);
}

Vertex Graph::add_vertex(std::span<const Vertex> neighbors) {
  const Vertex v = add_vertex();
  for (const Vertex u : neighbors) {
    const bool added = add_edge(u, v);
    PARDFS_CHECK_MSG(added, "duplicate neighbor in vertex insertion");
  }
  return v;
}

void Graph::remove_vertex(Vertex v) {
  check_alive(v);
  auto& nbrs = adjacency_[static_cast<std::size_t>(v)];
  // Detach from each neighbor's list.
  for (const Vertex u : nbrs) {
    auto& other = adjacency_[static_cast<std::size_t>(u)];
    other.erase(std::find(other.begin(), other.end(), v));
  }
  num_edges_ -= static_cast<std::int64_t>(nbrs.size());
  nbrs.clear();
  nbrs.shrink_to_fit();
  alive_[static_cast<std::size_t>(v)] = 0;
  --num_alive_;
}

bool Graph::add_edge(Vertex u, Vertex v) {
  check_alive(u);
  check_alive(v);
  PARDFS_CHECK_MSG(u != v, "self-loops are not supported");
  if (has_edge(u, v)) return false;
  adjacency_[static_cast<std::size_t>(u)].push_back(v);
  adjacency_[static_cast<std::size_t>(v)].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::remove_edge(Vertex u, Vertex v) {
  check_alive(u);
  check_alive(v);
  auto& au = adjacency_[static_cast<std::size_t>(u)];
  auto it = std::find(au.begin(), au.end(), v);
  if (it == au.end()) return false;
  au.erase(it);
  auto& av = adjacency_[static_cast<std::size_t>(v)];
  av.erase(std::find(av.begin(), av.end(), u));
  --num_edges_;
  return true;
}

Vertex Graph::apply(const GraphUpdate& update) {
  switch (update.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      add_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kDeleteEdge:
      remove_edge(update.u, update.v);
      break;
    case GraphUpdate::Kind::kInsertVertex:
      return add_vertex(update.neighbors);
    case GraphUpdate::Kind::kDeleteVertex:
      remove_vertex(update.u);
      break;
  }
  return kNullVertex;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (!is_alive(u) || !is_alive(v)) return false;
  const auto& au = adjacency_[static_cast<std::size_t>(u)];
  const auto& av = adjacency_[static_cast<std::size_t>(v)];
  // Scan the shorter list.
  const auto& shorter = au.size() <= av.size() ? au : av;
  const Vertex target = au.size() <= av.size() ? v : u;
  return std::find(shorter.begin(), shorter.end(), target) != shorter.end();
}

void Graph::pad_to(Vertex new_capacity) {
  if (new_capacity <= capacity()) return;
  adjacency_.resize(static_cast<std::size_t>(new_capacity));
  alive_.resize(static_cast<std::size_t>(new_capacity), 0);
}

void Graph::adopt_component(std::span<const Vertex> vertices,
                            std::vector<std::vector<Vertex>> rows) {
  PARDFS_CHECK_MSG(vertices.size() == rows.size(),
                   "adopt_component: vertices/rows size mismatch");
  std::vector<std::uint8_t> member(static_cast<std::size_t>(capacity()), 0);
  for (const Vertex v : vertices) {
    PARDFS_CHECK_MSG(v >= 0 && v < capacity() &&
                         alive_[static_cast<std::size_t>(v)] == 0,
                     "adopt_component: vertex alive or out of range");
    member[static_cast<std::size_t>(v)] = 1;
  }
  std::int64_t degree_sum = 0;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (const Vertex w : rows[i]) {
      PARDFS_CHECK_MSG(w >= 0 && w < capacity() &&
                           member[static_cast<std::size_t>(w)] != 0,
                       "adopt_component: rows are not edge-closed");
    }
    degree_sum += static_cast<std::int64_t>(rows[i].size());
    adjacency_[static_cast<std::size_t>(vertices[i])] = std::move(rows[i]);
    alive_[static_cast<std::size_t>(vertices[i])] = 1;
  }
  num_alive_ += static_cast<Vertex>(vertices.size());
  num_edges_ += degree_sum / 2;
}

std::vector<std::vector<Vertex>> Graph::extract_component(
    std::span<const Vertex> vertices) {
  std::vector<std::uint8_t> member(static_cast<std::size_t>(capacity()), 0);
  for (const Vertex v : vertices) {
    check_alive(v);
    member[static_cast<std::size_t>(v)] = 1;
  }
  std::vector<std::vector<Vertex>> rows;
  rows.reserve(vertices.size());
  std::int64_t degree_sum = 0;
  for (const Vertex v : vertices) {
    auto& nbrs = adjacency_[static_cast<std::size_t>(v)];
    for (const Vertex w : nbrs) {
      PARDFS_CHECK_MSG(member[static_cast<std::size_t>(w)] != 0,
                       "extract_component: vertex set is not edge-closed");
    }
    degree_sum += static_cast<std::int64_t>(nbrs.size());
    rows.push_back(std::move(nbrs));
    nbrs.clear();
    nbrs.shrink_to_fit();
    alive_[static_cast<std::size_t>(v)] = 0;
  }
  num_alive_ -= static_cast<Vertex>(vertices.size());
  num_edges_ -= degree_sum / 2;
  return rows;
}

std::vector<Edge> Graph::edges() const {
  // CSR-style snapshot: parallel counting pass, exclusive scan for slots,
  // parallel fill. Each (u < v) pair lands at a fixed offset, so the output
  // order matches the old serial scan exactly.
  const std::size_t n = static_cast<std::size_t>(capacity());
  std::vector<std::uint32_t> counts(n, 0);
  pram::parallel_for_t(0, n, [&](std::size_t su) {
    if (!alive_[su]) return;
    const Vertex u = static_cast<Vertex>(su);
    std::uint32_t c = 0;
    for (const Vertex v : adjacency_[su]) c += u < v ? 1 : 0;
    counts[su] = c;
  });
  std::vector<std::uint32_t> offsets(n, 0);
  const std::uint64_t total = pram::exclusive_scan(counts, offsets);
  PARDFS_CHECK_MSG(total <= UINT32_MAX,
                   "edge-snapshot offsets are 32-bit: graph exceeds 2^32 edges");
  std::vector<Edge> out(static_cast<std::size_t>(total));
  pram::parallel_for_t(0, n, [&](std::size_t su) {
    if (!alive_[su]) return;
    const Vertex u = static_cast<Vertex>(su);
    std::size_t slot = offsets[su];
    for (const Vertex v : adjacency_[su]) {
      if (u < v) out[slot++] = {u, v};
    }
  });
  return out;
}

}  // namespace pardfs
