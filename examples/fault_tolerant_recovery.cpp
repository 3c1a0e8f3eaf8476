// Fault-tolerant recovery drill (paper Theorem 14).
//
// A data-center spine-leaf fabric is preprocessed ONCE (building the O(m)
// data structure D). Afterwards, arbitrary k-failure scenarios — "these
// links and switches just died" — are answered without touching D: the DFS
// forest of the surviving fabric is produced per scenario, and with it the
// connectivity/articulation picture the recovery planner needs. The engine
// is a DynamicDfs whose epoch never closes (kNeverRebase); each scenario
// rolls back to the preprocessed fabric and applies its batch. Exits 1 on
// an invalid forest or if D was ever rebuilt.
#include <cstdio>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/graph.hpp"
#include "tree/validation.hpp"

using namespace pardfs;

namespace {

// 2-tier Clos: `spines` top switches fully meshed to `leaves` switches,
// each leaf with `hosts` hosts.
Graph clos_fabric(Vertex spines, Vertex leaves, Vertex hosts) {
  Graph g(spines + leaves + leaves * hosts);
  for (Vertex s = 0; s < spines; ++s) {
    for (Vertex l = 0; l < leaves; ++l) g.add_edge(s, spines + l);
  }
  Vertex next = spines + leaves;
  for (Vertex l = 0; l < leaves; ++l) {
    for (Vertex h = 0; h < hosts; ++h) g.add_edge(spines + l, next++);
  }
  return g;
}

int count_components(std::span<const Vertex> parent, const Graph& g) {
  int roots = 0;
  for (Vertex v = 0; v < g.capacity(); ++v) {
    if (g.is_alive(v) && parent[static_cast<std::size_t>(v)] == kNullVertex) ++roots;
  }
  return roots;
}

}  // namespace

int main() {
  const Vertex spines = 4, leaves = 16, hosts = 24;
  Graph fabric = clos_fabric(spines, leaves, hosts);
  std::printf("fabric: %d switches+hosts, %lld links; preprocessing D once...\n",
              fabric.num_vertices(), static_cast<long long>(fabric.num_edges()));
  DynamicDfs ft(fabric, RerootStrategy::kPaper, nullptr, 0, -1, {},
                DynamicDfs::kNeverRebase);

  const struct {
    const char* name;
    std::vector<GraphUpdate> batch;
  } scenarios[] = {
      {"single uplink cut", {GraphUpdate::delete_edge(0, spines + 3)}},
      {"spine 0 dies", {GraphUpdate::delete_vertex(0)}},
      {"leaf 5 dies + a spare spine-link appears",
       {GraphUpdate::delete_vertex(spines + 5),
        GraphUpdate::insert_edge(1, 2)}},
      {"rolling maintenance: 3 uplinks then a replacement leaf",
       {GraphUpdate::delete_edge(1, spines + 0), GraphUpdate::delete_edge(2, spines + 0),
        GraphUpdate::delete_edge(3, spines + 0),
        GraphUpdate::insert_vertex({0, 1, 2, 3})}},
      {"double spine failure", {GraphUpdate::delete_vertex(2), GraphUpdate::delete_vertex(3)}},
  };

  for (const auto& sc : scenarios) {
    ft.reset_to_base();
    const BatchStats stats = ft.apply_batch(sc.batch);
    const auto check = validate_dfs_forest(ft.graph(), ft.parent());
    const int comps = count_components(ft.parent(), ft.graph());
    std::printf("scenario '%s': k=%zu updates -> %d component(s), forest %s\n"
                "  batch: %zu structural, %zu back-edge, %zu segment(s), "
                "%zu index rebuild(s), reroot rounds %llu; D builds: %zu\n",
                sc.name, sc.batch.size(), comps, check.ok ? "valid" : "INVALID",
                stats.structural, stats.back_edges, stats.segments,
                stats.index_rebuilds,
                static_cast<unsigned long long>(ft.last_stats().global_rounds),
                ft.d_builds());
    if (!check.ok) {
      std::printf("  reason: %s\n", check.reason.c_str());
      return 1;
    }
    if (ft.d_builds() != 1) {
      std::printf("  D was rebuilt: the fault-tolerant contract is broken\n");
      return 1;
    }
  }
  std::printf("\nall scenarios answered from one preprocessing pass.\n");
  return 0;
}
