// Workload generators for tests and benchmarks.
//
// The paper's bounds are worst-case over graph families; the benchmark
// harness exercises families that stress different parts of the rerooting
// case analysis:
//   * paths / caterpillars — long p_c components, path-halving heavy;
//   * stars / brooms — Θ(n) subtrees reroot after one update, the case where
//     sequential rerooting ([6]) degenerates and the parallel strategy shines;
//   * complete binary trees — deep heavy-subtree recursion (vH chains);
//   * grids — bounded diameter for the CONGEST experiments;
//   * G(n, p) / G(n, m) — average case;
//   * hairy paths — path with pendant subtrees, exercising C2 components.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/random.hpp"

namespace pardfs::gen {

// Erdős–Rényi G(n, p): each edge present independently with probability p.
Graph gnp(Vertex n, double p, Rng& rng);

// Uniform random graph with exactly m distinct edges.
Graph gnm(Vertex n, std::int64_t m, Rng& rng);

// Simple path 0-1-2-...-(n-1).
Graph path(Vertex n);

// Cycle on n vertices.
Graph cycle(Vertex n);

// Star: vertex 0 adjacent to all others.
Graph star(Vertex n);

// Complete graph.
Graph clique(Vertex n);

// Broom: path of length `handle` whose last vertex fans out to n-handle leaves.
// Worst case for sequential rerooting: deleting the handle tip's tree edge
// forces Θ(n) subtrees to re-attach.
Graph broom(Vertex n, Vertex handle);

// Complete binary tree on n vertices (heap ordering).
Graph binary_tree(Vertex n);

// rows × cols grid; diameter rows+cols-2.
Graph grid(Vertex rows, Vertex cols);

// Path of length `spine` with a pendant path of length `hair` at every spine
// vertex (caterpillar with long hairs): stresses C2 components.
Graph hairy_path(Vertex spine, Vertex hair);

// Random spanning tree (uniform attachment) plus `extra` random non-tree
// edges — guaranteed connected.
Graph random_connected(Vertex n, std::int64_t extra, Rng& rng);

// Barabási–Albert preferential attachment: a clique seed on m+1 vertices,
// then each new vertex attaches to m distinct existing vertices chosen with
// probability proportional to their degree (classic repeated-endpoint
// sampling). Produces the power-law degree distribution of social graphs —
// hub vertices make service workloads adversarial: one hub update touches a
// Θ(n) neighborhood. Connected; m ≥ 1; n ≥ m + 1.
Graph barabasi_albert(Vertex n, Vertex m, Rng& rng);

// Generates a feasible random update for the current graph, drawing kinds
// with the given weights (normalized internally). Returns false if no
// feasible update exists (e.g. empty graph and zero insert weight).
bool random_update(const Graph& g, Rng& rng, double w_insert_edge,
                   double w_delete_edge, double w_insert_vertex,
                   double w_delete_vertex, GraphUpdate& out);

}  // namespace pardfs::gen
