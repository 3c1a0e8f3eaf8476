// Distributed demo (paper Theorem 16): maintaining a DFS tree of a network
// inside the network itself, in the synchronous CONGEST(n/D) model. Shows
// rounds/messages per update on two topologies with very different
// diameters — rounds track D·log^2 n, not n.
#include <cstdio>

#include "dist/distributed_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

using namespace pardfs;

namespace {

void run(const char* name, Graph g, Rng& rng) {
  dist::DistributedDfs dd(std::move(g));
  std::printf("%s: n=%d, m=%lld, B=%d words/message\n", name,
              dd.graph().num_vertices(),
              static_cast<long long>(dd.graph().num_edges()), dd.message_words());
  for (int step = 0; step < 5; ++step) {
    GraphUpdate u;
    if (!gen::random_update(dd.graph(), rng, 1, 1, 0, 0, u)) break;
    dd.apply(u);
    const auto& c = dd.last_cost();
    const auto check = validate_dfs_forest(dd.graph(), dd.parent());
    std::printf("  update %d: rounds %6llu  messages %8llu  query sets %3llu  "
                "BFS height %3d  [%s]\n",
                step, static_cast<unsigned long long>(c.rounds),
                static_cast<unsigned long long>(c.messages),
                static_cast<unsigned long long>(c.query_sets), c.bfs_height,
                check.ok ? "valid" : check.reason.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Rng rng(555);
  run("expander-ish gnm (diameter ~4)", gen::gnm(1024, 6 * 1024, rng), rng);
  run("32x32 grid (diameter 62)", gen::grid(32, 32), rng);
  Graph ring = gen::cycle(1024);
  run("1024-ring (diameter 512)", std::move(ring), rng);
  return 0;
}
