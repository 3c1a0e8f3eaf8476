// Forest fingerprints: the maintained DFS forests are pinned byte for byte.
//
// Every case folds the parent array after each batch (or update), plus the
// engine's RerootStats other than grouping_scanned, into one FNV-1a hash;
// the pinned constants were recorded on the code before the rerooting engine
// read its adjacency from the graph instead of D's patched copy. A change to
// an adjacency reader that moves one tree edge anywhere moves the hash.
// grouping_scanned is left out: it counts the entries a grouping sweep reads
// before it stops, which depends on row order, not on the forest.
//
// Coverage: the generator families × serial cutoffs 0 / 8 / default × epoch
// periods Θ(log n) / 3, on mixed streams with vertex inserts and deletes;
// Theorem 14 engines (kNeverRebase, reset_to_base() before every batch); and,
// on small graphs, streams that insert a cross edge and delete it again
// inside one epoch, so a tree edge D only knew as a patch dies between two
// leftover pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic_dfs.hpp"
#include "graph/generators.hpp"
#include "tree/validation.hpp"
#include "util/random.hpp"

namespace pardfs {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add_forest(std::span<const Vertex> parent) {
    add(parent.size());
    for (const Vertex p : parent) add(static_cast<std::uint32_t>(p));
  }
  void add_stats(const RerootStats& s) {
    for (const std::uint64_t x :
         {s.global_rounds, s.query_batches, s.components_processed,
          s.vertices_traversed, s.disintegrating, s.path_halving,
          s.disconnecting, s.heavy_l, s.heavy_p, s.heavy_r, s.heavy_special,
          s.fallbacks, s.serial_finishes, s.recomputes,
          static_cast<std::uint64_t>(s.max_phase)}) {
      add(x);
    }
  }
  void add_engine(const DynamicDfs& dfs) {
    add_forest(dfs.parent());
    add_stats(dfs.last_stats());
  }
};

constexpr int kFamilies = 7;
const char* const kFamilyNames[kFamilies] = {
    "random_connected", "gnm", "grid", "barabasi_albert",
    "broom", "hairy_path", "star"};

// Each family at about n vertices (n a multiple of 6).
Graph family_graph(int family, Rng& rng, Vertex n) {
  Vertex side = 1;
  while ((side + 1) * (side + 1) <= n) ++side;
  switch (family) {
    case 0: return gen::random_connected(n, 3 * n / 2, rng);
    case 1: return gen::gnm(n, 5 * n / 4, rng);  // a forest of several trees
    case 2: return gen::grid(side, side + 1);
    case 3: return gen::barabasi_albert(n, 2, rng);
    case 4: return gen::broom(n, n / 4);
    case 5: return gen::hairy_path(n / 6, 5);
    default: return gen::star(5 * n / 6);
  }
}

// Serial cutoffs 0 (the pure round machinery), 8 (rounds down to small
// components) and -1 (the engine default, Θ(log² n)).
constexpr std::int32_t kCutoffs[] = {0, 8, -1};
// Epoch periods: Θ(log n) and a fixed 3.
constexpr std::size_t kPeriods[] = {0, 3};

DynamicDfs make_engine(const Graph& g, std::int32_t cutoff, std::size_t period) {
  return DynamicDfs(g, RerootStrategy::kPaper, nullptr, 0, cutoff, {}, period);
}

void expect_valid(const DynamicDfs& dfs, const std::string& where) {
  const auto val = validate_dfs_forest(dfs.graph(), dfs.parent());
  ASSERT_TRUE(val.ok) << where << ": " << val.reason;
}

// A feasible mixed stream with vertex inserts and deletes, pre-generated
// against a mirror graph.
std::vector<GraphUpdate> mixed_stream(const Graph& initial, int count,
                                      std::uint64_t seed) {
  Graph mirror = initial;
  Rng rng(seed);
  std::vector<GraphUpdate> out;
  for (int i = 0; i < count; ++i) {
    GraphUpdate u;
    if (!gen::random_update(mirror, rng, 1.0, 1.0, 0.25, 0.25, u)) break;
    mirror.apply(u);
    out.push_back(std::move(u));
  }
  return out;
}

// Checks `got` against the pinned hash of each family, printing every
// mismatch so a deliberate re-pin reads the new values off one run.
void expect_pinned(const char* test, const std::uint64_t (&want)[kFamilies],
                   const std::uint64_t (&got)[kFamilies]) {
  for (int f = 0; f < kFamilies; ++f) {
    EXPECT_EQ(got[f], want[f]) << test << " / " << kFamilyNames[f] << ": got 0x"
                               << std::hex << got[f];
  }
}

// Mixed streams, alternately in batches of 6 through apply_batch and one
// update at a time through apply().
TEST(ForestFingerprint, MixedStreamsAcrossCutoffsAndPeriods) {
  std::uint64_t got[kFamilies];
  for (int f = 0; f < kFamilies; ++f) {
    Rng rng(1000 + static_cast<std::uint64_t>(f));
    const Graph g = family_graph(f, rng, 240);
    const std::vector<GraphUpdate> stream =
        mixed_stream(g, 150, 2000 + static_cast<std::uint64_t>(f));
    Fnv h;
    for (const std::int32_t cutoff : kCutoffs) {
      for (const std::size_t period : kPeriods) {
        DynamicDfs batched = make_engine(g, cutoff, period);
        for (std::size_t i = 0; i < stream.size(); i += 6) {
          batched.apply_batch(std::span(stream).subspan(
              i, std::min<std::size_t>(6, stream.size() - i)));
          h.add_engine(batched);
        }
        expect_valid(batched, std::string(kFamilyNames[f]) + " batched");
        DynamicDfs single = make_engine(g, cutoff, period);
        for (const GraphUpdate& u : stream) {
          single.apply(u);
          h.add_engine(single);
        }
        expect_valid(single, std::string(kFamilyNames[f]) + " single");
      }
    }
    got[f] = h.h;
  }
  const std::uint64_t want[kFamilies] = {
      0x9c2e6f4b4ea1980eULL, 0x95a99312faaaefcbULL, 0x26f050cb124871ddULL, 0xda7a34dc2ce06dc4ULL,
      0x2de757062f32d6e8ULL, 0x596acb8afac44879ULL, 0xab8152014f35495eULL};
  expect_pinned("mixed", want, got);
}

// Theorem 14: one D, and every batch starts again from the preprocessed
// graph. Each batch is drawn feasible on that graph.
TEST(ForestFingerprint, NeverRebaseBatchesFromTheBase) {
  std::uint64_t got[kFamilies];
  for (int f = 0; f < kFamilies; ++f) {
    Rng rng(3000 + static_cast<std::uint64_t>(f));
    const Graph g = family_graph(f, rng, 240);
    Fnv h;
    for (const std::int32_t cutoff : kCutoffs) {
      DynamicDfs ft = make_engine(g, cutoff, DynamicDfs::kNeverRebase);
      Rng draws(4000 + static_cast<std::uint64_t>(f));
      for (int b = 0; b < 12; ++b) {
        const std::vector<GraphUpdate> batch =
            mixed_stream(g, 2 + b % 7, draws());
        ft.reset_to_base();
        ft.apply_batch(batch);
        h.add_engine(ft);
        expect_valid(ft, std::string(kFamilyNames[f]) + " never-rebase");
      }
      EXPECT_EQ(ft.d_builds(), 1u) << kFamilyNames[f];
    }
    got[f] = h.h;
  }
  const std::uint64_t want[kFamilies] = {
      0x0f193388d3ab42c8ULL, 0x663ba08f86f21f7eULL, 0x5dc54e8102a79246ULL, 0x2aeaa3f5b89266f8ULL,
      0x16a3f68ccbcf1fc9ULL, 0x4cc0901127577ba6ULL, 0xc03ff7f1faceca5fULL};
  expect_pinned("never_rebase", want, got);
}

// A cross edge inserted and deleted again inside one epoch: the insert
// reroots so that the edge becomes a tree edge D holds only as a patch, the
// delete drops that patch, and the reroot it triggers splits pieces across
// the dead edge. On 30-vertex graphs the delete's traversal often leaves
// both ends of the dead edge in leftover pieces that nothing else joins, so
// a grouping that took the dead edge for a live one unites them and fails
// here. Pairs are drawn from the engine's own forest (two vertices
// of one tree, neither an ancestor of the other), with a random edge update
// between the insert and the delete; batched, the insert is one batch and
// the rest another. Twenty draws in a row without a pair delete a random
// edge first.
TEST(ForestFingerprint, CrossEdgeInsertedAndDeletedInOneEpoch) {
  std::uint64_t got[kFamilies];
  for (int f = 0; f < kFamilies; ++f) {
    Rng rng(5000 + static_cast<std::uint64_t>(f));
    const Graph g = family_graph(f, rng, 30);
    Fnv h;
    for (const std::int32_t cutoff : kCutoffs) {
      for (const std::size_t period : kPeriods) {
        for (const bool batched : {false, true}) {
          DynamicDfs dfs = make_engine(g, cutoff, period);
          Rng draws(6000 + static_cast<std::uint64_t>(f));
          int pairs = 0;
          int misses = 0;
          for (int tries = 0; tries < 4000 && pairs < 12; ++tries) {
            const Graph& cur = dfs.graph();
            if (misses == 20) {
              // A forest that is one path (a grid's snake) has no cross
              // pair: delete a random edge to branch it.
              GraphUpdate cut;
              if (gen::random_update(cur, draws, 0.0, 1.0, 0.0, 0.0, cut)) {
                dfs.apply(cut);
                h.add_engine(dfs);
              }
              misses = 0;
              continue;
            }
            const auto n = static_cast<std::uint64_t>(cur.capacity());
            const auto u = static_cast<Vertex>(draws.below(n));
            const auto v = static_cast<Vertex>(draws.below(n));
            const TreeIndex& t = dfs.tree();
            if (u == v || !cur.is_alive(u) || !cur.is_alive(v) ||
                cur.has_edge(u, v) || t.root_of(u) != t.root_of(v) ||
                t.is_ancestor(u, v) || t.is_ancestor(v, u)) {
              ++misses;
              continue;
            }
            misses = 0;
            Graph mirror = cur;
            std::vector<GraphUpdate> ops = {GraphUpdate::insert_edge(u, v)};
            mirror.apply(ops.back());
            GraphUpdate mid;
            if (gen::random_update(mirror, draws, 1.0, 1.0, 0.0, 0.0, mid) &&
                !(mid.kind == GraphUpdate::Kind::kDeleteEdge &&
                  ((mid.u == u && mid.v == v) || (mid.u == v && mid.v == u)))) {
              mirror.apply(mid);
              ops.push_back(std::move(mid));
            }
            ops.push_back(GraphUpdate::delete_edge(u, v));
            if (batched) {
              // The insert lands first, so the delete's segment cuts a tree
              // edge of the pre-batch forest.
              const std::span<const GraphUpdate> all(ops);
              dfs.apply_batch(all.first(1));
              h.add_engine(dfs);
              dfs.apply_batch(all.subspan(1));
              h.add_engine(dfs);
            } else {
              for (const GraphUpdate& op : ops) {
                dfs.apply(op);
                h.add_engine(dfs);
              }
            }
            ++pairs;
          }
          EXPECT_EQ(pairs, 12) << kFamilyNames[f];
          expect_valid(dfs, std::string(kFamilyNames[f]) + " cross");
        }
      }
    }
    got[f] = h.h;
  }
  const std::uint64_t want[kFamilies] = {
      0x325a2684908ecdf5ULL, 0x9061a3f1f6495e3dULL, 0x5d7bf61129e53e2dULL, 0xa154b5c276bdda75ULL,
      0xc7765cf48617d195ULL, 0x93d749be77969bb5ULL, 0x87122f486ff5a225ULL};
  expect_pinned("cross_insert_delete", want, got);
}

}  // namespace
}  // namespace pardfs
