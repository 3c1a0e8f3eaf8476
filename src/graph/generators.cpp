#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.hpp"

namespace pardfs::gen {

Graph gnp(Vertex n, double p, Rng& rng) {
  Graph g(n);
  if (p <= 0.0) return g;
  if (p >= 1.0) return clique(n);
  // Geometric skipping (Batagelj–Brandes): O(m) expected time.
  const double log1mp = std::log(1.0 - p);
  std::int64_t v = 1, w = -1;
  while (v < n) {
    const double r = rng.uniform();
    w += 1 + static_cast<std::int64_t>(std::log(1.0 - r) / log1mp);
    while (w >= v && v < n) {
      w -= v;
      ++v;
    }
    if (v < n) g.add_edge(static_cast<Vertex>(v), static_cast<Vertex>(w));
  }
  return g;
}

Graph gnm(Vertex n, std::int64_t m, Rng& rng) {
  const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  PARDFS_CHECK_MSG(m <= max_m, "too many edges requested");
  Graph g(n);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(m) * 2);
  while (static_cast<std::int64_t>(seen.size()) < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (seen.insert(undirected_key(u, v)).second) g.add_edge(u, v);
  }
  return g;
}

Graph path(Vertex n) {
  Graph g(n);
  for (Vertex i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph cycle(Vertex n) {
  Graph g = path(n);
  if (n >= 3) g.add_edge(n - 1, 0);
  return g;
}

Graph star(Vertex n) {
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) g.add_edge(0, i);
  return g;
}

Graph clique(Vertex n) {
  Graph g(n);
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) g.add_edge(i, j);
  return g;
}

Graph broom(Vertex n, Vertex handle) {
  PARDFS_CHECK(handle >= 1 && handle <= n);
  Graph g(n);
  for (Vertex i = 0; i + 1 < handle; ++i) g.add_edge(i, i + 1);
  for (Vertex i = handle; i < n; ++i) g.add_edge(handle - 1, i);
  return g;
}

Graph binary_tree(Vertex n) {
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) g.add_edge((i - 1) / 2, i);
  return g;
}

Graph grid(Vertex rows, Vertex cols) {
  Graph g(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph hairy_path(Vertex spine, Vertex hair) {
  const Vertex n = spine * (1 + hair);
  Graph g(n);
  for (Vertex i = 0; i + 1 < spine; ++i) g.add_edge(i, i + 1);
  Vertex next = spine;
  for (Vertex i = 0; i < spine; ++i) {
    Vertex prev = i;
    for (Vertex h = 0; h < hair; ++h) {
      g.add_edge(prev, next);
      prev = next++;
    }
  }
  return g;
}

Graph random_connected(Vertex n, std::int64_t extra, Rng& rng) {
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) {
    const Vertex parent = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(i)));
    g.add_edge(parent, i);
  }
  std::int64_t added = 0;
  const std::int64_t max_extra =
      static_cast<std::int64_t>(n) * (n - 1) / 2 - (n - 1);
  const std::int64_t target = std::min(extra, max_extra);
  while (added < target) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (g.add_edge(u, v)) ++added;
  }
  return g;
}

Graph barabasi_albert(Vertex n, Vertex m, Rng& rng) {
  PARDFS_CHECK(m >= 1 && n >= m + 1);
  Graph g(n);
  // Endpoint list: every vertex appears once per incident edge, so a uniform
  // draw from it is degree-proportional attachment.
  std::vector<Vertex> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n) * 2 * static_cast<std::size_t>(m));
  for (Vertex i = 0; i <= m; ++i) {
    for (Vertex j = i + 1; j <= m; ++j) {
      g.add_edge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  std::vector<Vertex> targets;
  for (Vertex v = m + 1; v < n; ++v) {
    targets.clear();
    while (static_cast<Vertex>(targets.size()) < m) {
      const Vertex t = endpoints[rng.below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const Vertex t : targets) {
      g.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return g;
}

namespace {

// Picks a uniformly random alive vertex; returns kNullVertex if none.
Vertex random_alive(const Graph& g, Rng& rng) {
  if (g.num_vertices() == 0) return kNullVertex;
  for (;;) {
    const Vertex v =
        static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(g.capacity())));
    if (g.is_alive(v)) return v;
  }
}

bool pick_absent_edge(const Graph& g, Rng& rng, Vertex& u, Vertex& v) {
  if (g.num_vertices() < 2) return false;
  const std::int64_t nv = g.num_vertices();
  if (g.num_edges() >= nv * (nv - 1) / 2) return false;  // complete
  for (int attempt = 0; attempt < 256; ++attempt) {
    u = random_alive(g, rng);
    v = random_alive(g, rng);
    if (u != v && !g.has_edge(u, v)) return true;
  }
  return false;  // dense graph, unlucky — caller may fall back to another kind
}

bool pick_present_edge(const Graph& g, Rng& rng, Vertex& u, Vertex& v) {
  if (g.num_edges() == 0) return false;
  for (int attempt = 0; attempt < 256; ++attempt) {
    u = random_alive(g, rng);
    if (g.degree(u) == 0) continue;
    const auto nbrs = g.neighbors(u);
    v = nbrs[rng.below(nbrs.size())];
    return true;
  }
  return false;
}

}  // namespace

bool random_update(const Graph& g, Rng& rng, double w_insert_edge,
                   double w_delete_edge, double w_insert_vertex,
                   double w_delete_vertex, GraphUpdate& out) {
  double weights[4] = {w_insert_edge, w_delete_edge, w_insert_vertex,
                       w_delete_vertex};
  for (int attempt = 0; attempt < 16; ++attempt) {
    const double total = weights[0] + weights[1] + weights[2] + weights[3];
    if (total <= 0.0) return false;
    double pick = rng.uniform() * total;
    int kind = 0;
    while (kind < 3 && pick >= weights[kind]) pick -= weights[kind++];
    switch (static_cast<GraphUpdate::Kind>(kind)) {
      case GraphUpdate::Kind::kInsertEdge: {
        Vertex u, v;
        if (pick_absent_edge(g, rng, u, v)) {
          out = GraphUpdate::insert_edge(u, v);
          return true;
        }
        break;
      }
      case GraphUpdate::Kind::kDeleteEdge: {
        Vertex u, v;
        if (pick_present_edge(g, rng, u, v)) {
          out = GraphUpdate::delete_edge(u, v);
          return true;
        }
        break;
      }
      case GraphUpdate::Kind::kInsertVertex: {
        // Up to 8 random distinct neighbors (possibly zero).
        std::vector<Vertex> nbrs;
        if (g.num_vertices() > 0) {
          const std::uint64_t want = rng.below(9);
          std::unordered_set<Vertex> set;
          for (std::uint64_t t = 0; t < want * 4 && set.size() < want; ++t) {
            set.insert(random_alive(g, rng));
          }
          nbrs.assign(set.begin(), set.end());
          std::sort(nbrs.begin(), nbrs.end());
        }
        out = GraphUpdate::insert_vertex(std::move(nbrs));
        return true;
      }
      case GraphUpdate::Kind::kDeleteVertex: {
        if (g.num_vertices() > 1) {
          out = GraphUpdate::delete_vertex(random_alive(g, rng));
          return true;
        }
        break;
      }
    }
    weights[kind] = 0.0;  // kind infeasible; retry among the rest
  }
  return false;
}

}  // namespace pardfs::gen
