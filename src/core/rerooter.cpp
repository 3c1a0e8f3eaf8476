#include "core/rerooter.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>

#include "core/rerooter_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pram/parallel.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace pardfs {

void RerootStats::accumulate(const RerootStats& other) {
  global_rounds += other.global_rounds;
  query_batches += other.query_batches;
  components_processed += other.components_processed;
  vertices_traversed += other.vertices_traversed;
  disintegrating += other.disintegrating;
  path_halving += other.path_halving;
  disconnecting += other.disconnecting;
  heavy_l += other.heavy_l;
  heavy_p += other.heavy_p;
  heavy_r += other.heavy_r;
  heavy_special += other.heavy_special;
  fallbacks += other.fallbacks;
  serial_finishes += other.serial_finishes;
  recomputes += other.recomputes;
  grouping_scanned += other.grouping_scanned;
  max_phase = std::max(max_phase, other.max_phase);
}

namespace detail {

std::vector<Run> split_runs(const TreeIndex& cur, const std::vector<Vertex>& chain) {
  std::vector<Run> runs;
  const std::size_t n = chain.size();
  std::size_t start = 0;
  int direction = 0;  // +1 down (next is child), -1 up, 0 unknown
  for (std::size_t i = 1; i < n; ++i) {
    const Vertex a = chain[i - 1];
    const Vertex b = chain[i];
    int step = 0;
    if (cur.parent(b) == a) {
      step = +1;
    } else if (cur.parent(a) == b) {
      step = -1;
    }  // else: back-edge jump (step stays 0)
    // Run boundary: a jump or a bend. Either way the new run starts at b
    // with an unknown direction — a bend keeps walking in the tree, but its
    // direction is only established by the new run's own second vertex.
    if (step == 0 || (direction != 0 && step != direction)) {
      runs.push_back({start, i - 1});
      start = i;
      direction = 0;
    } else {
      direction = step;
    }
  }
  runs.push_back({start, n - 1});
  return runs;
}

ChainHit best_edge_to_chain(EngineCtx& ctx, std::span<const Piece> pieces,
                            const std::vector<Vertex>& chain,
                            const std::vector<Run>& runs) {
  ChainHit best;
  // Runs partition the chain into disjoint, increasing position ranges, so
  // ANY hit in a later run beats every hit in an earlier one. Scanning runs
  // in descending position with an early exit returns the same winner as the
  // full pieces × runs sweep while skipping most of it — components attach
  // near the retreat end, so the last run usually decides.
  for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
    const Run& run = *rit;
    for (const Piece& piece : pieces) {
      // Prefer endpoints nearest the run's late end (largest chain position).
      const auto hit =
          ctx.view().query_piece(piece, chain[run.last], chain[run.first]);
      if (!hit) continue;
      const std::int32_t pos = ctx.chain_pos(hit->v);
      PARDFS_CHECK_MSG(pos >= 0, "query returned an endpoint off the chain");
      // Total order (pos desc, u asc, v asc): the winner must never depend
      // on piece-iteration order now that components step in parallel and
      // feed merged component lists back into the next round. On a simple
      // chain pos already determines v, so the v term is pure defense — it
      // keeps the order total even if a traversal ever emitted a repeated
      // vertex.
      if (pos > best.pos ||
          (pos == best.pos &&
           (hit->u < best.edge.u ||
            (hit->u == best.edge.u && hit->v < best.edge.v)))) {
        best = {*hit, pos};
      }
    }
    if (best.valid()) break;
  }
  // Batch accounting happens at the call sites: queries for different
  // groups are independent (disjoint sources) and share one set per run.
  return best;
}

namespace {
std::atomic<bool> g_force_round_team{false};
}  // namespace

bool round_team_forced() {
  return g_force_round_team.load(std::memory_order_relaxed);
}
void set_force_round_team(bool on) {
  g_force_round_team.store(on, std::memory_order_relaxed);
}

namespace {

std::int32_t piece_size(const TreeIndex& cur, const Piece& p) {
  if (p.kind == PieceKind::kSubtree) return cur.size(p.root);
  return cur.depth(p.bottom) - cur.depth(p.top) + 1;
}

std::int32_t component_size(const TreeIndex& cur, const Component& comp) {
  auto total = static_cast<std::int32_t>(comp.new_vertices.size());
  for (const Piece& p : comp.pieces) total += piece_size(cur, p);
  return total;
}

// Whether a team fans this round out: the round's wall time on a perfect
// team is its largest component's step, so only the remainder is work the
// workers can take off the calling thread.
bool round_has_slack(const TreeIndex& cur, std::span<const Component> round) {
  if (round_team_forced()) return true;
  std::int64_t total = 0;
  std::int64_t largest = 0;
  for (const Component& c : round) {
    const std::int64_t size = component_size(cur, c);
    total += size;
    largest = std::max(largest, size);
  }
  return total - largest >= Rerooter::kParallelRoundWork;
}

// Brent-style completion of a sub-cutoff component: one processor performs a
// plain DFS of the component's induced subgraph from its entry. Any DFS of
// the component is a valid completion (components property: external edges
// lead to T* ancestors of the entry), and neighbors enumerate in the graph's
// row order — a pure function of the component's update history, so the
// result is thread-count independent and identical across engines with
// different rebase histories (see the cutoff comment in rerooter.hpp). No
// query batches are issued.
// A work-capped component (Component::recompute) is finished the same way.
// It holds whole pre-batch trees, so it skips their deleted vertices, plus
// the vertices its batch inserted (Component::new_vertices), which lie
// beyond the index. It has no entry: its first live member in piece
// pre-order, then in new_vertices order, roots the first tree, and since the
// batch may have split it, every live member the DFS has not reached when
// the stack empties roots a new tree, in the same order. The caller counts
// which finish ran.
void serial_finish(detail::EngineCtx& ctx, const Component& comp,
                   std::span<Vertex> parent_out) {
  const TreeIndex& cur = ctx.cur();
  const Graph& graph = ctx.graph();
  // Membership marks: the DFS must not escape the component.
  ctx.begin_mark();
  std::size_t total = 0;
  for (const Piece& p : comp.pieces) {
    if (p.kind == PieceKind::kSubtree) {
      const auto span = cur.subtree_span(p.root);
      if (comp.recompute) {
        for (const Vertex v : span) {
          if (!graph.is_alive(v)) continue;
          ctx.mark(v);
          ++total;
        }
      } else {
        for (const Vertex v : span) ctx.mark(v);
        total += span.size();
      }
    } else {
      for (Vertex v = p.bottom;; v = cur.parent(v)) {
        ctx.mark(v);
        ++total;
        if (v == p.top) break;
      }
    }
  }
  for (const Vertex v : comp.new_vertices) {
    ctx.mark(v);
    ++total;
  }
  // Graph neighbors can be vertices inserted after the current index was
  // built (ids at or beyond its capacity). The mark slots span the graph's
  // ids, and only a recomputed component marks any of them.
  ctx.begin_visit();
  auto& stack = ctx.dfs_scratch();
  stack.clear();
  std::size_t visited = 0;
  // Root cursor of a recomputed component: (piece, offset in its span), then
  // the new vertices as one more span.
  std::size_t next_piece = 0;
  std::size_t next_pos = 0;
  const auto restart = [&] {
    for (; next_piece <= comp.pieces.size(); ++next_piece, next_pos = 0) {
      const std::span<const Vertex> span =
          next_piece < comp.pieces.size()
              ? cur.subtree_span(comp.pieces[next_piece].root)
              : std::span<const Vertex>(comp.new_vertices);
      for (; next_pos < span.size(); ++next_pos) {
        const Vertex v = span[next_pos];
        if (!ctx.marked(v) || ctx.visited(v)) continue;
        parent_out[static_cast<std::size_t>(v)] = kNullVertex;
        ctx.visit(v);
        ++visited;
        stack.push_back({v, 0});
        return;
      }
    }
  };
  if (comp.recompute) {
    restart();
  } else {
    parent_out[static_cast<std::size_t>(comp.entry)] = comp.attach_parent;
    ctx.visit(comp.entry);
    ++visited;
    stack.push_back({comp.entry, 0});
  }
  while (!stack.empty()) {
    auto& frame = stack.back();
    const Vertex v = frame.v;
    Vertex child = kNullVertex;
    // Row entries are the live current edges by construction.
    const auto row = graph.neighbors(v);
    while (frame.row_i < row.size()) {
      const Vertex z = row[frame.row_i++];
      if (ctx.marked(z) && !ctx.visited(z)) {
        child = z;
        break;
      }
    }
    if (child != kNullVertex) {
      parent_out[static_cast<std::size_t>(child)] = v;
      ctx.visit(child);
      ++visited;
      stack.push_back({child, 0});
    } else {
      stack.pop_back();
      if (stack.empty() && comp.recompute && visited < total) restart();
    }
  }
  PARDFS_CHECK_MSG(visited == total, "serial finish: component not connected");
  ctx.stats().vertices_traversed += total;
}

// Applies a planned traversal: writes T* parents along the chain, then
// hands the leftover pieces to group_leftovers, which groups them into the
// next round's components from only the edges that can join two pieces —
// tree edges between pieces united structurally, back edges from one sweep
// of the path pieces' memoized non-tree rows — and attaches each group at
// its retreat-first edge to p* (DESIGN.md §9).
void finish_traversal(detail::EngineCtx& ctx, const Component& comp,
                      detail::TraversalPlan&& plan, std::span<Vertex> parent_out,
                      std::vector<Component>& next) {
  PARDFS_CHECK(!plan.pstar.empty());
  PARDFS_CHECK(plan.pstar.front() == comp.entry);

  Vertex prev = comp.attach_parent;
  for (const Vertex v : plan.pstar) {
    parent_out[static_cast<std::size_t>(v)] = prev;
    prev = v;
  }
  ctx.stats().vertices_traversed += plan.pstar.size();
  if (!plan.leftovers.empty()) group_leftovers(ctx, comp, plan, next);
}

}  // namespace

void NonTreeRows::fill(Vertex v, RowArena& arena) {
  const auto full = graph_.neighbors(v);
  Vertex* out = arena.reserve(full.size());
  const Vertex cap = cur_.capacity();
  const std::int32_t pre_v = cur_.pre(v);
  std::size_t count = 0;
  for (const Vertex z : full) {
    // Ids inserted after the index was built lie in no piece; tree edges
    // join pieces structurally; an edge up to an ancestor is kept in the row
    // of its upper end. Graph rows are in update order, so which entries
    // survive is unpredictable: the test is branch-free (is_ancestor(y, v)
    // spelled with `&`), every entry is stored and only a kept one advances
    // the count. An id beyond the index reads v's slots instead.
    const bool indexed = z < cap;
    const Vertex y = indexed ? z : v;
    const std::int32_t pre_y = cur_.pre(y);
    const bool up = (pre_y <= pre_v) & (pre_v < pre_y + cur_.size(y));
    out[count] = z;
    count += static_cast<std::size_t>(indexed & (cur_.parent(y) != v) & !up);
  }
  if (cost_ != nullptr) cost_->add_query(full.size());
  arena.commit(count);
  slots_[static_cast<std::size_t>(v)] = {out, count};
}

void group_leftovers(EngineCtx& ctx, const Component& comp,
                     const TraversalPlan& plan, std::vector<Component>& next) {
  const TreeIndex& cur = ctx.cur();
  const Graph& graph = ctx.graph();
  const std::size_t k = plan.leftovers.size();

  // Vertex -> containing leftover piece, as a stamped O(1) map: the walks
  // below look up every non-tree neighbour of every path vertex and every
  // neighbour of the chain, so the lookup must be loads, not searches.
  // Stamping costs O(total leftover size) — the same order as the leftovers'
  // own construction.
  ctx.begin_piece_map();
  for (std::size_t i = 0; i < k; ++i) {
    const Piece& p = plan.leftovers[i];
    if (p.kind == PieceKind::kSubtree) {
      for (const Vertex v : cur.subtree_span(p.root)) {
        ctx.map_piece(v, static_cast<std::int32_t>(i));
      }
    } else {
      for (Vertex v = p.bottom;; v = cur.parent(v)) {
        ctx.map_piece(v, static_cast<std::int32_t>(i));
        if (v == p.top) break;
      }
    }
  }
  const Vertex cap = cur.capacity();
  const auto piece_of = [&](Vertex z) -> std::int32_t {
    if (z < 0 || z >= cap) return -1;
    return ctx.piece_at(z);
  };

  // Group leftover pieces into the components of the unvisited graph. The
  // PRAM formulation is one batch of pairwise piece-to-path queries; the same
  // partition comes out of the edges that can join two pieces, read in two
  // steps. The union-find partition, and with it the emitted component
  // order, is edge-set determined, so neither step's order matters.
  PieceUf uf(k);
  std::size_t num_groups = k;
  const auto join = [&](std::size_t a, std::size_t b) {
    if (uf.unite(a, b)) --num_groups;
  };
  // (1) Tree edges, structurally in O(k). A tree edge between two pieces has
  // its child end at a piece head (every other piece vertex has its parent
  // in the same piece), so uniting each head with its parent's piece, when
  // that edge is still in the graph, covers all of them.
  for (std::size_t i = 0; i < k && num_groups > 1; ++i) {
    const Vertex head = plan.leftovers[i].head();
    const Vertex parent = cur.parent(head);
    if (parent == kNullVertex) continue;
    const std::int32_t j = piece_of(parent);
    if (j >= 0 && static_cast<std::size_t>(j) != i &&
        graph.has_edge(head, parent)) {
      join(i, static_cast<std::size_t>(j));
    }
  }
  // (2) Non-tree edges: only (subtree|path) <-> path ones can exist
  // (subtree-subtree edges would be cross edges of the current DFS tree),
  // and a back edge's upper end is the one on a path piece, so one sweep
  // over the path pieces' non-tree rows finds them. It stops once one group
  // remains; the rows it reads are charged to the cost model as the
  // adjacency scans they replace.
  const bool has_path =
      std::any_of(plan.leftovers.begin(), plan.leftovers.end(),
                  [](const Piece& p) { return p.kind == PieceKind::kPath; });
  if (has_path) {
    if (num_groups > 1) {
      NonTreeRows& rows = ctx.rows();
      RowArena& arena = ctx.row_arena();
      std::uint64_t scanned = 0;
      for (std::size_t i = 0; i < k && num_groups > 1; ++i) {
        const Piece& pp = plan.leftovers[i];
        if (pp.kind != PieceKind::kPath) continue;
        for (Vertex v = pp.bottom;; v = cur.parent(v)) {
          std::uint64_t read = 0;
          for (const Vertex z : rows.row(v, arena)) {
            ++read;
            // Rows are in update order, so whether z lies in another piece
            // is unpredictable: every entry joins, one outside the pieces
            // as the no-op join(i, i).
            const std::int32_t j = piece_of(z);
            join(i, j < 0 ? i : static_cast<std::size_t>(j));
            if (num_groups == 1) break;
          }
          ctx.charge_scan(read);
          scanned += read;
          if (num_groups == 1 || v == pp.top) break;
        }
      }
      ctx.stats().grouping_scanned += scanned;
    }
    ctx.count_batch();  // grouping = one logical set of independent queries
  }

  // Gather groups and each piece's group id.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::int32_t> group_of_piece(k, -1);
  {
    std::vector<std::int32_t> group_of(k, -1);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t r = uf.find(i);
      if (group_of[r] < 0) {
        group_of[r] = static_cast<std::int32_t>(groups.size());
        groups.emplace_back();
      }
      group_of_piece[i] = group_of[r];
      groups[static_cast<std::size_t>(group_of[r])].push_back(i);
    }
  }

  // Attachment edges. The PRAM formulation issues, per run of p*, one set of
  // independent queries (all groups are sourced from disjoint pieces) and
  // keeps, per group, the hit of largest chain position — ties broken by
  // (u asc, v asc). One serial walk of p* from its late end computes the
  // same winners for EVERY group at once: the first chain vertex q with an
  // edge into a group fixes that group's position (q), and the smallest
  // piece-side endpoint among q's edges into the group is the paper's
  // tie-break, so neither depends on row order. The walk reads full graph
  // rows: a tree edge from q into a hanging subtree is as valid an attach
  // edge as a back edge, and the rows are exactly the current graph, the
  // edge universe of the query sweep.
  const std::size_t num_runs = split_runs(cur, plan.pstar).size();
  for (std::size_t b = 0; b < num_runs; ++b) ctx.count_batch();
  struct GroupAttach {
    Vertex entry = kNullVertex;   // u: piece-side endpoint
    Vertex attach = kNullVertex;  // v = q on p*
    std::int32_t entry_piece = -1;
  };
  std::vector<GroupAttach> attach(groups.size());
  std::size_t unattached = groups.size();
  for (std::size_t idx = plan.pstar.size(); idx-- > 0 && unattached > 0;) {
    const Vertex q = plan.pstar[idx];
    // p* is materialized, so the walk's next row is known: warm it while
    // this row's stamped piece lookups execute.
    if (idx > 0) simd::prefetch(graph.neighbors(plan.pstar[idx - 1]).data());
    const auto row = graph.neighbors(q);
    for (const Vertex z : row) {
      const std::int32_t j = piece_of(z);
      if (j < 0) continue;
      GroupAttach& a = attach[static_cast<std::size_t>(group_of_piece[j])];
      if (a.attach == q) {
        if (z < a.entry) {
          a.entry = z;
          a.entry_piece = j;
        }
      } else if (a.attach == kNullVertex) {
        a = {z, q, j};
        --unattached;
      }
    }
    ctx.charge_scan(row.size());
  }

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const GroupAttach& a = attach[gi];
    PARDFS_CHECK_MSG(a.attach != kNullVertex,
                     "leftover component has no edge to p*");
    Component nc;
    nc.entry = a.entry;
    nc.attach_parent = a.attach;
    nc.budget = comp.budget;
    nc.pieces.reserve(groups[gi].size());
    nc.entry_piece = -1;
    for (const std::size_t i : groups[gi]) {
      if (static_cast<std::int32_t>(i) == a.entry_piece) {
        nc.entry_piece = static_cast<std::int32_t>(nc.pieces.size());
      }
      nc.pieces.push_back(plan.leftovers[i]);
    }
    PARDFS_CHECK_MSG(nc.entry_piece >= 0, "entry vertex not inside any piece");
    next.push_back(std::move(nc));
  }
}

}  // namespace detail

Rerooter::Rerooter(const TreeIndex& current, const Graph& graph,
                   const OracleView& view, RerootStrategy strategy,
                   pram::CostModel* cost, int num_threads,
                   std::int32_t serial_cutoff)
    : cur_(current),
      graph_(graph),
      view_(view),
      strategy_(strategy),
      cost_(cost),
      num_threads_(num_threads),
      serial_cutoff_(serial_cutoff) {}

std::int32_t Rerooter::default_serial_cutoff(Vertex capacity) {
  const std::uint64_t n = static_cast<std::uint64_t>(capacity);
  const std::uint64_t logn = n > 1 ? 64 - __builtin_clzll(n - 1) : 1;
  // 4 log² n: deep enough to absorb the tail of tiny components a large
  // reroot disintegrates into, shallow enough that one processor finishes
  // it inside the engine's O(polylog) depth budget.
  return static_cast<std::int32_t>(4 * logn * logn);
}

bool Rerooter::finishes_serially(const TreeIndex& cur, const Component& c,
                                 std::int32_t serial_cutoff) {
  return c.recompute ||
         (serial_cutoff > 0 && detail::component_size(cur, c) <= serial_cutoff);
}

RerootStats Rerooter::run(std::span<const RerootRequest> requests,
                          std::span<Vertex> parent_out) {
  // Direct-only reductions (detached components, isolated inserts) reroot
  // nothing; skip the O(n) scratch allocation of the engine context.
  if (requests.empty()) return {};

  std::vector<Component> active;
  active.reserve(requests.size());
  for (const RerootRequest& r : requests) {
    PARDFS_CHECK(cur_.in_forest(r.subtree_root));
    PARDFS_CHECK_MSG(cur_.is_ancestor(r.subtree_root, r.new_root),
                     "new root must lie inside the rerooted subtree");
    Component c;
    c.entry = r.new_root;
    c.attach_parent = r.attach_parent;
    c.budget = cur_.size(r.subtree_root);
    c.pieces = {Piece::subtree(r.subtree_root)};
    c.entry_piece = 0;
    active.push_back(std::move(c));
  }
  return run_components(std::move(active), parent_out);
}

RerootStats Rerooter::run_components(std::vector<Component> active,
                                     std::span<Vertex> parent_out) {
  RerootStats stats;
  if (active.empty()) return stats;
  for (const Component& c : active) {
    PARDFS_CHECK(!c.pieces.empty() || !c.new_vertices.empty());
    // A recomputed component's serial finish picks its own roots, and only
    // it may hold vertices the index does not cover.
    PARDFS_CHECK(c.recompute ||
                 (c.new_vertices.empty() && c.entry_piece >= 0 &&
                  c.entry_piece < static_cast<std::int32_t>(c.pieces.size())));
  }

  const int threads = num_threads_ > 0 ? num_threads_ : pram::num_threads();
  static obs::Counter& serial_rounds = obs::Registry::global().counter(
      "pardfs_reroot_round_dispatch_total", "mode=\"serial\"");
  static obs::Counter& team_rounds = obs::Registry::global().counter(
      "pardfs_reroot_round_dispatch_total", "mode=\"team\"");
  // One context per worker, created on first use: a worker that never gets a
  // component (small rounds) never pays the O(n) scratch allocation or the
  // oracle-view memo copy.
  std::vector<std::unique_ptr<detail::EngineCtx>> workers(
      static_cast<std::size_t>(threads > 0 ? threads : 1));
  // The pass's non-tree rows, filled by the groupings that sweep them.
  detail::NonTreeRows rows(cur_, graph_, cost_);
  const auto worker_ctx = [&](int w) -> detail::EngineCtx& {
    auto& slot = workers[static_cast<std::size_t>(w)];
    if (!slot) {
      slot = std::make_unique<detail::EngineCtx>(cur_, graph_, view_, &rows, cost_);
    }
    return *slot;
  };

  // Per-component output slots for one round. Workers write only their
  // component's slots, so the merged order — and with it T* and every next
  // round's component list — is identical at any thread count.
  std::vector<std::vector<Component>> emitted;
  std::vector<std::uint32_t> comp_batches;
  std::vector<Component> next;
  while (!active.empty()) {
    // Tracing only (no histogram): round latencies are a wall-clock artifact
    // of the worker team, not part of the deterministic round/batch record.
    const obs::Span round_span("reroot_round");
    ++stats.global_rounds;
    const std::size_t k = active.size();
    emitted.assign(k, {});
    comp_batches.assign(k, 0);
    const auto step = [&](detail::EngineCtx& ctx, std::size_t i) {
      const obs::Span step_span("engine_step");
      ++ctx.stats().components_processed;
      ctx.begin_step();
      // Only the batch reduction marks a component `recompute`, and only
      // when the caller runs a serial cutoff, so the cap acts in round 1.
      const bool capped = active[i].recompute;
      PARDFS_CHECK_MSG(!capped || serial_cutoff_ > 0,
                       "a recomputed component needs the serial finish");
      if (finishes_serially(cur_, active[i], serial_cutoff_)) {
        detail::serial_finish(ctx, active[i], parent_out);
        ++(capped ? ctx.stats().recomputes : ctx.stats().serial_finishes);
        comp_batches[i] = 0;
        return;
      }
      detail::TraversalPlan plan =
          detail::plan_traversal(ctx, active[i], strategy_);
      detail::finish_traversal(ctx, active[i], std::move(plan), parent_out,
                               emitted[i]);
      comp_batches[i] = ctx.step_batches();
    };
    const bool team =
        threads > 1 && k > 1 && detail::round_has_slack(cur_, active);
    if (team) {
      team_rounds.add();
      pram::parallel_for_workers(
          k, threads, [&](int w, std::size_t i) { step(worker_ctx(w), i); });
    } else {
      // A single component, a single worker or a round without slack: step
      // on the calling thread, so the primitives inside a step (subtree-wide
      // query reductions) keep their own full teams instead of being
      // nested-serialized under an outer region.
      serial_rounds.add();
      for (std::size_t i = 0; i < k; ++i) step(worker_ctx(0), i);
    }

    // Round barrier: merge. The PRAM cost model is unchanged — it counts
    // logical rounds (per-round batch count = max over components), not
    // worker threads.
    std::uint32_t round_batches = 0;
    next.clear();
    for (std::size_t i = 0; i < k; ++i) {
      round_batches = std::max(round_batches, comp_batches[i]);
      std::move(emitted[i].begin(), emitted[i].end(), std::back_inserter(next));
    }
    stats.query_batches += round_batches;
    if (cost_ != nullptr) {
      const std::uint64_t n = static_cast<std::uint64_t>(cur_.capacity());
      const std::uint64_t logn = n > 1 ? 64 - __builtin_clzll(n - 1) : 1;
      // Each batch is one set of independent queries: O(log n) PRAM depth.
      for (std::uint32_t b = 0; b < round_batches; ++b) {
        cost_->add_query_round(logn, 0);
      }
    }
    active.swap(next);
  }
  for (const auto& w : workers) {
    if (w) stats.accumulate(w->stats());
  }
  return stats;
}

}  // namespace pardfs
