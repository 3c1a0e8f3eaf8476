// Immutable DFS-forest snapshot — the read side of the serving layer.
//
// A snapshot freezes one published version of the maintained forest: the
// parent array, the liveness bitmap and a TreeIndex built over them, plus
// the version number and the count of updates it absorbed. Snapshots are
// shared as `shared_ptr<const DfsSnapshot>` and published RCU-style through
// one `std::atomic<std::shared_ptr>` (see dfs_service.hpp): readers load the
// pointer once and then answer any number of queries against a forest that
// can never change underneath them — consistency is structural, not locked.
//
// Unlike the core classes (which PARDFS_CHECK their preconditions), every
// query here is total: snapshots sit on the service boundary, where clients
// hold ids that may have been deleted — or never existed — by the time the
// query runs. Out-of-range and dead vertices yield false / kNullVertex /
// empty rather than aborting the server.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/articulation.hpp"
#include "graph/edge.hpp"
#include "tree/tree_index.hpp"

namespace pardfs::service {

class DfsSnapshot {
 public:
  // The forest-shaped part of a snapshot. Patch-only batches (back-edge
  // inserts/deletes) change num_edges and the version but not the forest,
  // so consecutive snapshots share one immutable Forest instead of paying
  // O(n) copies per publish (see DfsService::publish). The TreeIndex is
  // shared with the core: DynamicDfs rebuilds produce a NEW index object
  // instead of mutating the published one, so structural-batch publication
  // is a pointer copy, not a megabyte clone.
  struct Forest {
    std::vector<Vertex> parent;
    std::vector<std::uint8_t> alive;
    // Built over exactly this parent/alive pair; immutable while shared.
    std::shared_ptr<const TreeIndex> index;
    Vertex num_vertices = 0;
  };

  // `cuts` is optional (ServiceConfig::serve_cuts): unlike the forest it
  // depends on the *non-tree* edges too — a back-edge insert can demote an
  // articulation point — so it lives on the snapshot, not the shared Forest,
  // and is recomputed even for patch-only publishes.
  DfsSnapshot(std::uint64_t version, std::uint64_t updates_applied,
              std::shared_ptr<const Forest> forest, std::int64_t num_edges,
              std::shared_ptr<const CutStructure> cuts = nullptr);

  // ---- identity ------------------------------------------------------------
  std::uint64_t version() const { return version_; }
  // Updates absorbed since the service started, i.e. the length of the
  // accepted-update prefix this snapshot reflects (lets tests replay a
  // mirror graph and validate the forest of any published version).
  std::uint64_t updates_applied() const { return updates_applied_; }
  Vertex capacity() const {
    return static_cast<Vertex>(forest_->parent.size());
  }
  Vertex num_vertices() const { return forest_->num_vertices; }
  std::int64_t num_edges() const { return num_edges_; }
  std::span<const Vertex> parent() const { return forest_->parent; }
  const TreeIndex& tree() const { return *forest_->index; }
  const std::shared_ptr<const Forest>& forest() const { return forest_; }

  // ---- queries (all total; see header comment) -----------------------------
  bool contains(Vertex v) const {
    return v >= 0 && v < capacity() &&
           forest_->alive[static_cast<std::size_t>(v)] != 0;
  }
  Vertex parent_of(Vertex v) const {
    return contains(v) ? forest_->parent[static_cast<std::size_t>(v)]
                       : kNullVertex;
  }
  Vertex root_of(Vertex v) const {
    return contains(v) ? forest_->index->root_of(v) : kNullVertex;
  }
  std::int32_t depth(Vertex v) const {
    return contains(v) ? forest_->index->depth(v) : -1;
  }
  std::int32_t subtree_size(Vertex v) const {
    return contains(v) ? forest_->index->size(v) : 0;
  }
  bool is_ancestor(Vertex a, Vertex d) const {
    return contains(a) && contains(d) && forest_->index->is_ancestor(a, d);
  }
  Vertex lca(Vertex u, Vertex v) const {
    return contains(u) && contains(v) ? forest_->index->lca(u, v) : kNullVertex;
  }
  bool same_component(Vertex u, Vertex v) const {
    return contains(u) && contains(v) &&
           forest_->index->root_of(u) == forest_->index->root_of(v);
  }
  // The dynamic-map client vocabulary: u can reach v iff they sit in the
  // same tree of the spanning forest.
  bool reachable(Vertex u, Vertex v) const { return same_component(u, v); }
  // Vertices from v up to its tree root, inclusive; empty if v is unknown.
  std::vector<Vertex> path_to_root(Vertex v) const;

  // ---- cut queries (core/articulation served per snapshot) -----------------
  // Present only when the service was configured with serve_cuts; without it
  // every cut query answers the benign default (false / empty), mirroring
  // the totality contract above.
  bool serves_cuts() const { return cuts_ != nullptr; }
  // True iff deleting v would split its component (v must be alive).
  bool is_articulation(Vertex v) const {
    return cuts_ != nullptr && contains(v) &&
           cuts_->is_articulation[static_cast<std::size_t>(v)] != 0;
  }
  // All bridge edges of the snapshot, as (parent, child) tree edges.
  std::span<const Edge> bridges() const {
    return cuts_ != nullptr ? std::span<const Edge>(cuts_->bridges)
                            : std::span<const Edge>();
  }
  // True iff (u, v) is a bridge: a graph edge whose deletion splits the
  // component. O(log #bridges): a binary search for the tree edge's child
  // side (a churned 128x128 map serves hundreds of bridges).
  bool is_bridge(Vertex u, Vertex v) const;

 private:
  std::uint64_t version_;
  std::uint64_t updates_applied_;
  std::shared_ptr<const Forest> forest_;
  std::int64_t num_edges_;
  std::shared_ptr<const CutStructure> cuts_;
};

using SnapshotPtr = std::shared_ptr<const DfsSnapshot>;

}  // namespace pardfs::service
