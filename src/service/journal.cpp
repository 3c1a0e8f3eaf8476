#include "service/journal.hpp"

#include <utility>

#include "util/check.hpp"

namespace pardfs::service {
namespace {

const char* kind_letter(GraphUpdate::Kind k) {
  switch (k) {
    case GraphUpdate::Kind::kInsertEdge: return "+e";
    case GraphUpdate::Kind::kDeleteEdge: return "-e";
    case GraphUpdate::Kind::kInsertVertex: return "+v";
    case GraphUpdate::Kind::kDeleteVertex: return "-v";
  }
  return "?";
}

}  // namespace

UpdateJournal::UpdateJournal(Graph genesis, Config config)
    : genesis_(std::move(genesis)), config_(std::move(config)) {
  if (!config_.file_path.empty()) {
    file_ = std::fopen(config_.file_path.c_str(), "w");
    // A journal that cannot open its debug file stays memory-only: the file
    // is a post-mortem aid, never the source of truth for replay.
    if (file_ != nullptr) {
      std::fprintf(file_, "# pardfs journal shard=%s n=%lld\n",
                   config_.obs_shard.empty() ? "0" : config_.obs_shard.c_str(),
                   static_cast<long long>(genesis_.capacity()));
    }
  }
}

UpdateJournal::~UpdateJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void UpdateJournal::append_line(const std::string& line) {
  if (file_ == nullptr) return;
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void UpdateJournal::record_pad(Vertex capacity) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kPad;
  e.vertex = capacity;
  log_.push_back(std::move(e));
  append_line("pad " + std::to_string(capacity));
}

void UpdateJournal::record_apply(std::span<const GraphUpdate> batch,
                                 std::uint64_t version_after,
                                 std::uint64_t updates_after) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kApply;
  e.batch.assign(batch.begin(), batch.end());
  e.version_after = version_after;
  e.updates_after = updates_after;
  log_.push_back(std::move(e));
  if (file_ != nullptr) {
    std::string line = "apply v" + std::to_string(version_after);
    for (const GraphUpdate& u : batch) {
      line += ' ';
      line += kind_letter(u.kind);
      line += '(' + std::to_string(u.u) + ',' + std::to_string(u.v) + ')';
    }
    append_line(line);
  }
}

void UpdateJournal::record_extract(Vertex vertex, std::uint64_t version_after) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kExtract;
  e.vertex = vertex;
  e.version_after = version_after;
  log_.push_back(std::move(e));
  append_line("extract " + std::to_string(vertex) + " v" +
              std::to_string(version_after));
}

void UpdateJournal::record_adopt(const DynamicDfs::ComponentTransfer& t) {
  std::lock_guard lock(mu_);
  Entry e;
  e.kind = Entry::Kind::kAdopt;
  e.transfer = t;
  log_.push_back(std::move(e));
  append_line("adopt " + std::to_string(t.vertices.size()) + " vertices");
}

void UpdateJournal::checkpoint(const Graph& graph,
                               std::span<const Vertex> parent,
                               std::uint64_t version,
                               std::uint64_t updates_applied) {
  std::lock_guard lock(mu_);
  Checkpoint& cp = checkpoint_.has_value() ? *checkpoint_ : checkpoint_.emplace();
  cp.capacity = graph.capacity();
  cp.version = version;
  cp.updates_applied = updates_applied;
  cp.ids.clear();
  cp.parents.clear();
  cp.row_end.clear();
  cp.adjacency.clear();
  const std::span<const std::uint8_t> alive = graph.alive();
  for (Vertex v = 0; v < graph.capacity(); ++v) {
    if (alive[static_cast<std::size_t>(v)] == 0) continue;
    cp.ids.push_back(v);
    cp.parents.push_back(parent[static_cast<std::size_t>(v)]);
    const auto nb = graph.neighbors(v);
    cp.adjacency.insert(cp.adjacency.end(), nb.begin(), nb.end());
    cp.row_end.push_back(cp.adjacency.size());
  }
  const std::size_t dropped = log_.size();
  // The point is bounding memory: release the entry storage and the
  // now-superseded genesis graph, not just empty them.
  log_.clear();
  log_.shrink_to_fit();
  genesis_ = Graph();
  append_line("checkpoint v" + std::to_string(version) + " n=" +
              std::to_string(static_cast<long long>(graph.capacity())) +
              " dropped=" + std::to_string(dropped));
}

std::size_t UpdateJournal::entries() const {
  std::lock_guard lock(mu_);
  return log_.size();
}

UpdateJournal::ReplayResult UpdateJournal::replay() const {
  std::lock_guard lock(mu_);
  // Identical construction parameters to the live engine (serial_cutoff is
  // pinned to -1, the value shard_router uses) — determinism (§12) then
  // guarantees the replayed forest is byte-identical. After a checkpoint the
  // base is an empty graph padded to the checkpointed capacity plus one
  // verbatim transplant of every live row, restoring the checkpointed forest
  // exactly as a migration would.
  ReplayResult r = [&] {
    if (checkpoint_.has_value()) {
      const Checkpoint& cp = *checkpoint_;
      Graph base;
      base.pad_to(cp.capacity);
      ReplayResult out{DynamicDfs(std::move(base), config_.strategy, nullptr,
                                  config_.num_threads, -1, config_.obs_shard),
                       cp.version, cp.updates_applied, {}};
      if (!cp.ids.empty()) {
        DynamicDfs::ComponentTransfer state;
        state.vertices = cp.ids;
        state.parent = cp.parents;
        state.rows.reserve(cp.ids.size());
        const Vertex* adjacency = cp.adjacency.data();
        std::size_t begin = 0;
        for (const std::size_t end : cp.row_end) {
          state.rows.emplace_back(adjacency + begin, adjacency + end);
          begin = end;
        }
        out.engine.adopt_component(std::move(state));
      }
      return out;
    }
    return ReplayResult{DynamicDfs(genesis_, config_.strategy, nullptr,
                                   config_.num_threads, -1, config_.obs_shard),
                        1, 0, {}};
  }();
  for (const Entry& e : log_) {
    switch (e.kind) {
      case Entry::Kind::kPad:
        r.engine.pad_capacity(e.vertex);
        break;
      case Entry::Kind::kApply: {
        BatchStats stats = r.engine.apply_batch(e.batch);
        r.version = e.version_after;
        r.updates_applied = e.updates_after;
        r.last_new_vertices = std::move(stats.new_vertices);
        break;
      }
      case Entry::Kind::kExtract:
        (void)r.engine.extract_component(e.vertex);
        r.version = e.version_after;
        break;
      case Entry::Kind::kAdopt:
        r.engine.adopt_component(e.transfer);
        break;
    }
  }
  return r;
}

}  // namespace pardfs::service
