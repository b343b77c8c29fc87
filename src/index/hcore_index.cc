#include "index/hcore_index.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/spectrum.h"

namespace hcore {

void HCoreIndexStats::Add(const HCoreIndexStats& other) {
  batches_applied += other.batches_applied;
  edits_applied += other.edits_applied;
  edits_rejected += other.edits_rejected;
  level_decompositions += other.level_decompositions;
  levels_unchanged += other.levels_unchanged;
  localized_updates += other.localized_updates;
  fallback_repeels += other.fallback_repeels;
  decomposition.Add(other.decomposition);
}

// ---------------------------------------------------------------------------
// HCoreSnapshot
// ---------------------------------------------------------------------------

HCoreSnapshot::HCoreSnapshot(std::shared_ptr<const Graph> graph,
                             std::vector<Level> levels, uint64_t epoch)
    : graph_(std::move(graph)),
      levels_(std::move(levels)),
      epoch_(epoch),
      hierarchy_(levels_.size()) {}

const std::vector<uint32_t>& HCoreSnapshot::Cores(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  return *levels_[h - 1].core;
}

uint32_t HCoreSnapshot::CoreOf(VertexId v, int h) const {
  const std::vector<uint32_t>& core = Cores(h);
  HCORE_CHECK(v < core.size());
  return core[v];
}

std::vector<uint32_t> HCoreSnapshot::Spectrum(VertexId v) const {
  std::vector<uint32_t> out;
  out.reserve(levels_.size());
  for (const Level& level : levels_) {
    HCORE_CHECK(v < level.core->size());
    out.push_back((*level.core)[v]);
  }
  return out;
}

uint32_t HCoreSnapshot::Degeneracy(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  return levels_[h - 1].degeneracy;
}

const CoreHierarchy& HCoreSnapshot::Hierarchy(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  MutexLock lock(lazy_mu_);
  std::unique_ptr<CoreHierarchy>& slot = hierarchy_[h - 1];
  if (slot == nullptr) {
    slot = std::make_unique<CoreHierarchy>(
        BuildCoreHierarchy(*graph_, *levels_[h - 1].core));
    lazy_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot;
}

std::vector<VertexId> HCoreSnapshot::CoreComponentOf(VertexId v, uint32_t k,
                                                     int h) const {
  if (v >= graph_->num_vertices() || CoreOf(v, h) < k) return {};
  const CoreHierarchy& tree = Hierarchy(h);
  // node_of[v] sits at level core_h(v) >= k; the component of v in C_k is
  // the subtree of the shallowest ancestor still at level >= k (components
  // only change at levels where the hierarchy has a node).
  uint32_t node = tree.node_of[v];
  while (tree.nodes[node].parent != CoreHierarchyNode::kNoParentSentinel &&
         tree.nodes[tree.nodes[node].parent].level >= k) {
    node = tree.nodes[node].parent;
  }
  return tree.ComponentVertices(node);
}

CommunityResult HCoreSnapshot::Community(const std::vector<VertexId>& query,
                                         int h) const {
  return CommunityFromHierarchy(Hierarchy(h), query);
}

std::vector<HCoreSnapshot::LevelDensity> HCoreSnapshot::TopDensestLevels(
    int h, size_t top_k) const {
  const CoreHierarchy& tree = Hierarchy(h);
  std::vector<LevelDensity> out;
  for (uint32_t k = 1; k < tree.vertices_in_core.size(); ++k) {
    LevelDensity d;
    d.k = k;
    d.vertices = tree.vertices_in_core[k];  // >= 1: k is at most the max core
    d.edges = tree.edges_in_core[k];
    d.density = static_cast<double>(d.edges) / d.vertices;
    out.push_back(d);
  }
  std::sort(out.begin(), out.end(),
            [](const LevelDensity& a, const LevelDensity& b) {
              if (a.density != b.density) return a.density > b.density;
              return a.k > b.k;
            });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

// ---------------------------------------------------------------------------
// HCoreIndex
// ---------------------------------------------------------------------------

HCoreIndex::HCoreIndex(Graph g, const HCoreIndexOptions& options)
    : options_(options) {
  HCORE_CHECK(options_.max_h >= 1);
  // The index sets the lower-bound pointer per write; a caller-supplied one
  // would dangle across epochs.
  HCORE_CHECK(options_.base.extra_lower_bound == nullptr);
  auto graph = std::make_shared<const Graph>(std::move(g));
  SpectrumOptions spectrum_options;
  spectrum_options.max_h = options_.max_h;
  spectrum_options.base = options_.base;
  SpectrumResult spectrum = KhCoreSpectrum(*graph, spectrum_options);
  std::vector<HCoreSnapshot::Level> levels(options_.max_h);
  for (int h = 1; h <= options_.max_h; ++h) {
    levels[h - 1].core = std::make_shared<const std::vector<uint32_t>>(
        std::move(spectrum.core[h - 1]));
    levels[h - 1].degeneracy = spectrum.degeneracy[h - 1];
  }
  MutexLock lock(mu_);
  stats_.level_decompositions = options_.max_h;
  stats_.decomposition = spectrum.stats;
  snap_.reset(new HCoreSnapshot(std::move(graph), std::move(levels),
                                /*epoch=*/0));
}

std::shared_ptr<const HCoreSnapshot> HCoreIndex::snapshot() const {
  MutexLock lock(mu_);
  return snap_;
}

std::vector<HCoreSnapshot::Level> HCoreIndex::DecomposeAll(
    const Graph& g, const HCoreSnapshot& prev, bool pure_insert,
    bool pure_delete, std::span<const EdgeEdit> effective,
    HCoreIndexStats* stats) {
  // Localized maintenance applies to pure batches small enough for a joint
  // candidate region (core/incremental.h); each level falls back to a
  // whole-graph re-decomposition independently when its region overflows.
  // Each localized strategy is exact only for a pure batch, so a mixed
  // batch goes straight to the re-decomposition.
  const bool try_localized = options_.localized.enable &&
                             (pure_insert || pure_delete) &&
                             !effective.empty() &&
                             effective.size() <= options_.localized.max_batch;
  std::vector<HCoreSnapshot::Level> levels(options_.max_h);
  for (int h = 1; h <= options_.max_h; ++h) {
    const std::vector<uint32_t>& old_core = *prev.levels_[h - 1].core;
    HCoreSnapshot::Level& level = levels[h - 1];
    std::vector<uint32_t> core;
    bool localized = false;
    if (try_localized) {
      core = old_core;
      LocalizedUpdateStats ls;
      localized = updater_.UpdateLevel(prev.graph(), g, effective,
                                       pure_insert, h, &core,
                                       options_.localized, &ls);
      if (localized) {
        ++stats->localized_updates;
        stats->decomposition.visited_vertices += ls.visited;
        stats->decomposition.hdegree_computations += ls.hdegree_computations;
        stats->decomposition.decrement_updates += ls.decrement_updates;
        for (const uint32_t c : core) {
          level.degeneracy = std::max(level.degeneracy, c);
        }
      }
    }
    if (!localized) {
      ++stats->fallback_repeels;
      KhCoreOptions opts = options_.base;
      opts.h = h;
      // Warm start: after a pure-insert batch the previous epoch's core_h
      // lower-bounds this one (distances only shrink), and vertices the
      // batch added start at 0; it saved 21-24% of the BFS runs where
      // measured. Every other re-decomposition peels from its own bounds:
      // old cores would upper-bound a delete, but only h-LB+UB can consume
      // one, and it measured slower than h-LB. h = 1 reads no bound.
      std::vector<uint32_t> lower;
      if (pure_insert && h > 1) {
        lower = old_core;
        lower.resize(g.num_vertices(), 0);
        opts.extra_lower_bound = &lower;
      }
      KhCoreResult r = KhCoreDecomposition(g, opts);
      ++stats->level_decompositions;
      stats->decomposition.Add(r.stats);
      level.degeneracy = r.degeneracy;
      core = std::move(r.core);
    }
    // Reuse is decided on the exact vector for both paths.
    if (old_core == core) {
      // Dirty flag stayed clean: share the previous epoch's vector.
      level.core = prev.levels_[h - 1].core;
      ++stats->levels_unchanged;
    } else {
      level.core =
          std::make_shared<const std::vector<uint32_t>>(std::move(core));
    }
  }
  return levels;
}

size_t HCoreIndex::ApplyBatch(std::span<const EdgeEdit> edits) {
  PendingWrite req;
  req.edits = edits;
  std::vector<PendingWrite*> group;
  {
    MutexLock lock(commit_mu_);
    commit_queue_.push_back(&req);
    for (;;) {
      if (req.done) return req.applied;  // a leader carried this write
      if (!commit_leader_) break;        // become the leader
      commit_cv_.Wait(lock);
    }
    commit_leader_ = true;
    group = std::move(commit_queue_);
    commit_queue_.clear();
  }
  writer_.Assume();  // the leader flag makes this thread the sole writer
  CommitGroup(group);
  {
    MutexLock lock(commit_mu_);
    for (PendingWrite* w : group) w->done = true;
    commit_leader_ = false;
  }
  // Wake coalesced members AND any writer that queued during the commit —
  // the latter sees the leader flag clear and elects itself.
  commit_cv_.NotifyAll();
  return req.applied;
}

void HCoreIndex::CommitGroup(std::span<PendingWrite* const> group) {
  const std::shared_ptr<const HCoreSnapshot> prev = snapshot();

  // Concatenate in arrival order: canonicalization's last-edit-wins then
  // composes across writers exactly as if they had serialized.
  std::vector<EdgeEdit> combined;
  for (const PendingWrite* w : group) {
    combined.insert(combined.end(), w->edits.begin(), w->edits.end());
  }
  EdgeEditSummary summary;
  const std::vector<EdgeEdit> effective =
      prev->graph().CanonicalEffectiveEdits(combined, &summary);

  HCoreIndexStats delta;
  delta.edits_rejected = summary.rejected;
  std::shared_ptr<const HCoreSnapshot> next;
  if (!effective.empty()) {
    // The ONE splice for the whole group.
    auto graph = std::make_shared<const Graph>(
        prev->graph().ApplyCanonicalEdits(effective));
    delta.batches_applied = 1;
    delta.edits_applied = summary.applied();
    // Purity is judged on the EFFECTIVE edits: a no-op edit of the opposite
    // kind (e.g. deleting an absent edge) must not disable the warm start.
    std::vector<HCoreSnapshot::Level> levels =
        DecomposeAll(*graph, *prev, /*pure_insert=*/summary.deletes == 0,
                     /*pure_delete=*/summary.inserts == 0, effective, &delta);
    next.reset(new HCoreSnapshot(std::move(graph), std::move(levels),
                                 prev->epoch() + 1));
  }
  {
    MutexLock lock(mu_);
    if (next != nullptr) snap_ = std::move(next);
    stats_.Add(delta);
  }

  // Attribution: each effective edit belongs to the writer holding the LAST
  // edit of that edge in arrival order (the one canonicalization kept).
  std::map<std::pair<VertexId, VertexId>, size_t> last_writer;
  for (size_t i = 0; i < group.size(); ++i) {
    for (const EdgeEdit& e : group[i]->edits) {
      last_writer[std::minmax(e.u, e.v)] = i;
    }
  }
  for (const EdgeEdit& e : effective) {
    ++group[last_writer.at({e.u, e.v})]->applied;
  }
}

bool HCoreIndex::InsertEdge(VertexId u, VertexId v) {
  const EdgeEdit edit = EdgeEdit::Insert(u, v);
  return ApplyBatch({&edit, 1}) > 0;
}

bool HCoreIndex::DeleteEdge(VertexId u, VertexId v) {
  const EdgeEdit edit = EdgeEdit::Delete(u, v);
  return ApplyBatch({&edit, 1}) > 0;
}

HCoreIndexStats HCoreIndex::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void HCoreIndex::ResetStats() {
  MutexLock lock(mu_);
  stats_ = HCoreIndexStats{};
}

}  // namespace hcore
