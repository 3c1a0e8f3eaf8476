#include "service/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace pardfs::service {

DfsSnapshot::DfsSnapshot(std::uint64_t version, std::uint64_t updates_applied,
                         std::shared_ptr<const Forest> forest,
                         std::int64_t num_edges,
                         std::shared_ptr<const CutStructure> cuts)
    : version_(version),
      updates_applied_(updates_applied),
      forest_(std::move(forest)),
      num_edges_(num_edges),
      cuts_(std::move(cuts)) {
  PARDFS_CHECK(forest_ != nullptr && forest_->index != nullptr);
}

bool DfsSnapshot::is_bridge(Vertex u, Vertex v) const {
  if (cuts_ == nullptr || !contains(u) || !contains(v)) return false;
  // A bridge is a tree edge: look its child side up among the bridges,
  // which find_cuts lists by ascending child id.
  const std::span<const Vertex> parent = forest_->parent;
  const Vertex child = parent[static_cast<std::size_t>(v)] == u   ? v
                       : parent[static_cast<std::size_t>(u)] == v ? u
                                                                  : kNullVertex;
  if (child == kNullVertex) return false;
  const std::vector<Edge>& bridges = cuts_->bridges;
  const auto it = std::lower_bound(
      bridges.begin(), bridges.end(), child,
      [](const Edge& b, Vertex c) { return b.v < c; });
  return it != bridges.end() && it->v == child;
}

std::vector<Vertex> DfsSnapshot::path_to_root(Vertex v) const {
  std::vector<Vertex> out;
  if (!contains(v)) return out;
  out.reserve(static_cast<std::size_t>(forest_->index->depth(v)) + 1);
  for (Vertex cur = v; cur != kNullVertex;
       cur = forest_->parent[static_cast<std::size_t>(cur)]) {
    out.push_back(cur);
  }
  return out;
}

}  // namespace pardfs::service
