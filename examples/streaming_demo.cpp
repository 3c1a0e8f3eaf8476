// Semi-streaming demo (paper Theorem 15): the graph lives in an edge
// stream; per update the DFS tree is repaired using O(log^2 n) passes
// instead of the O(n) passes a from-scratch streaming DFS construction
// needs. Prints the pass ledger per update.
#include <cstdio>

#include "graph/generators.hpp"
#include "stream/streaming_dfs.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

using namespace pardfs;

int main() {
  const Vertex n = 2000;
  Rng rng(99);
  Graph g = gen::random_connected(n, 3 * n, rng);
  stream::EdgeStream es(g.edges());
  stream::StreamingDfs sd(es, n);
  std::printf("graph in stream: %d vertices, %zu edges\n", n, es.size());
  std::printf("static build charged: %llu passes (the O(n) bound the dynamic "
              "algorithm avoids)\n\n",
              static_cast<unsigned long long>(sd.static_build_passes()));

  for (int step = 0; step < 12; ++step) {
    GraphUpdate u;
    if (!gen::random_update(sd.graph(), rng, 1, 1, 0, 0, u)) break;
    sd.apply(u);
    const auto check = validate_dfs_forest(sd.graph(), sd.parent());
    std::printf("update %2d (%s %4d-%4d): %3llu passes   [forest %s]\n", step,
                u.kind == GraphUpdate::Kind::kInsertEdge ? "insert" : "delete", u.u,
                u.v, static_cast<unsigned long long>(sd.passes_last_update()),
                check.ok ? "valid" : check.reason.c_str());
  }
  std::printf("\ntotal update passes: %llu  (log2(n)^2 = %.0f for reference)\n",
              static_cast<unsigned long long>(sd.passes_total()),
              11.0 * 11.0);
  return 0;
}
