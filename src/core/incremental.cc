#include "core/incremental.h"

#include <algorithm>
#include <utility>

#include "engine/peeling_engine.h"

namespace hcore {
namespace {

// `state_` values; 0 marks an untouched vertex, and every entry is 0
// between calls.
constexpr uint8_t kPinned = 1;  // insertion trial: boundary, keeps its core
constexpr uint8_t kRegion = 2;  // insertion trial: candidate, re-peeled
constexpr uint8_t kQueued = 1;  // delete cascade: in the worklist

/// Engine policy for the localized region peel. Region vertices behave like
/// a plain eager peel (assign the bucket on pop; neighbors at full distance
/// h take the exact unit decrement, closer ones a batched recomputation).
/// Pinned boundary vertices are scheduled removals: popped at their old
/// core index, never reassigned, never updated as neighbors.
struct LocalizedPolicy : PeelPolicyBase {
  LocalizedPolicy(const std::vector<uint8_t>& state,
                  std::vector<uint32_t>* core, int h)
      : state(state), core(core), h(h) {}

  bool OnPop(VertexId v, uint32_t k) {
    if (state[v] == kPinned) {
      // Region soundness: a pinned vertex keeps its old index, so its
      // seeded bucket is exactly where the true peel removes it.
      HCORE_DCHECK(k == (*core)[v]);
      return true;
    }
    (*core)[v] = k;
    return true;
  }

  PeelAction OnNeighbor(VertexId u, int dist, uint32_t) {
    if (state[u] == kPinned) return PeelAction::kSkip;
    return dist < h ? PeelAction::kRecompute : PeelAction::kDecrement;
  }

  const std::vector<uint8_t>& state;
  std::vector<uint32_t>* core;
  int h;
};

}  // namespace

/// Subgraph view for the delete cascade's violation test: the level set
/// {u : cur(u) >= level} (see the strategy comment in incremental.h).
struct LevelMask {
  const std::vector<uint32_t>* cur;
  uint32_t level;

  VertexId size() const { return static_cast<VertexId>(cur->size()); }
  bool IsAlive(VertexId v) const { return (*cur)[v] >= level; }
};

bool LocalizedUpdater::UpdateLevel(const Graph& g_before, const Graph& g_after,
                                   std::span<const EdgeEdit> effective,
                                   bool inserts, int h,
                                   std::vector<uint32_t>* core,
                                   const LocalizedUpdateOptions& options,
                                   LocalizedUpdateStats* stats) {
  HCORE_CHECK(h >= 1);
  HCORE_CHECK(core->size() == g_before.num_vertices());
  LocalizedUpdateStats local;
  bool ok = false;
  if (options.enable && !effective.empty()) {
    const uint64_t visits_before =
        bfs_.total_visited() + gate_bfs_.total_visited();
    // Deletions never shrink the vertex set; insertions may grow it, and
    // the newcomers' pre-edit core index is 0 (they did not exist).
    // `base_core_` keeps the pristine resized old cores; `next_core_`
    // receives the result.
    base_core_ = *core;
    base_core_.resize(g_after.num_vertices(), 0);
    if (state_.size() < g_after.num_vertices()) {
      state_.resize(g_after.num_vertices(), 0);
    }
    ok = inserts ? InsertUpdate(g_after, effective, h, options, &local)
                 : DeleteCascade(g_before, g_after, effective, h, options,
                                 &local);
    local.visited = bfs_.total_visited() + gate_bfs_.total_visited() -
                    visits_before;
    if (ok) *core = std::move(next_core_);
  }
  if (stats != nullptr) *stats = local;
  return ok;
}

bool LocalizedUpdater::InsertUpdate(const Graph& g_after,
                                    std::span<const EdgeEdit> effective,
                                    int h,
                                    const LocalizedUpdateOptions& options,
                                    LocalizedUpdateStats* local) {
  const VertexId n = g_after.num_vertices();
  // TRIAL bound, starting one above the classic-subcore level K0 =
  // min(old_core(u), old_core(v)): the region covers every possible change
  // below the bound, and the peel is exact there (pinned vertices, old core
  // >= bound <= their true core, stay alive through every sub-bound bucket
  // exactly like the true peel). The trial is certified when the computed
  // min endpoint core of every edit stays below the bound — no deeper level
  // can then have changed — and escalates geometrically otherwise.
  uint32_t bound = 0;
  for (const EdgeEdit& e : effective) {
    bound = std::max(bound, std::min(base_core_[e.u], base_core_[e.v]));
  }
  bound += 1;

  // Escalated trials gate admissions on h-degree: the failed trial was
  // exact below its bound, so the only new changes live at levels >= it,
  // and a vertex reaching such a level needs an h-degree that high.
  uint32_t hdeg_gate = 0;
  for (;;) {
    const bool fits = FindRegion(g_after, effective, h, bound, hdeg_gate,
                                 options.MaxRegion(n));
    local->region = region_.size();
    if (!fits) return false;
    next_core_ = base_core_;
    // An empty region means no seed passed the filter: nothing can change
    // at any covered level and no endpoint core can rise. Accept.
    if (region_.empty()) return true;

    mask_.Assign(n, false);
    for (const VertexId v : region_) mask_.Revive(v);
    for (const VertexId v : boundary_) mask_.Revive(v);
    PeelingEngine engine(g_after, h, &mask_, &bfs_, n);
    LocalizedPolicy policy(state_, &next_core_, h);
    engine.PeelRegion(region_, boundary_, next_core_, policy);
    for (const VertexId v : region_) state_[v] = 0;
    for (const VertexId v : boundary_) state_[v] = 0;
    local->hdegree_computations += engine.stats().hdegree_computations;
    local->decrement_updates += engine.stats().decrement_updates;

    // Certificate check (pinned endpoints report their old core, which is
    // exactly what the min compares against).
    uint32_t reached = 0;
    for (const EdgeEdit& e : effective) {
      reached = std::max(reached, std::min(next_core_[e.u], next_core_[e.v]));
    }
    if (reached < bound) return true;
    hdeg_gate = bound;
    bound = std::max(bound + 1, 2 * reached);
  }
}

bool LocalizedUpdater::FindRegion(const Graph& g,
                                  std::span<const EdgeEdit> effective, int h,
                                  uint32_t bound, uint32_t hdeg_gate,
                                  size_t max_region) {
  region_.clear();
  boundary_.clear();
  mask_.Assign(g.num_vertices(), true);

  // The change filter (see the file comment). The h-degree gate costs one
  // bounded BFS, so it runs last — on gate_bfs_, because the filter is
  // evaluated from inside the seed/expansion BFS visitors and bfs_ is
  // mid-run there.
  auto could_change = [&](VertexId x) {
    if (base_core_[x] >= bound) return false;
    if (hdeg_gate == 0 || base_core_[x] < hdeg_gate) return true;
    return gate_bfs_.HDegree(g, mask_, x, h) >= hdeg_gate;
  };

  bool overflow = false;
  auto add_region = [&](VertexId x) {
    if (overflow || state_[x] == kRegion) return;
    if (region_.size() >= max_region) {
      overflow = true;
      return;
    }
    // The filter is fixed, so a pinned vertex (filter failure) never flips
    // to the region; only untouched vertices land here.
    state_[x] = kRegion;
    region_.push_back(x);
  };

  // Seeds: filter-passing vertices within distance h-1 of an inserted
  // endpoint (cause (a) of the cascade), endpoints included.
  for (const EdgeEdit& e : effective) {
    HCORE_DCHECK(e.insert && e.u != e.v);
    for (const VertexId s : {e.u, e.v}) {
      if (could_change(s)) add_region(s);
      if (overflow) break;
      bfs_.Run(g, mask_, s, h - 1, [&](VertexId x, int) {
        if (could_change(x)) add_region(x);
      });
      if (overflow) break;
    }
    if (overflow) break;
  }

  // Chain closure (cause (b)): depth-h expansion from every accepted
  // vertex. Filter-failing visits become the pinned boundary; together the
  // expansions cover all of N_h(region) \ region.
  for (size_t i = 0; i < region_.size() && !overflow; ++i) {
    bfs_.Run(g, mask_, region_[i], h, [&](VertexId x, int) {
      if (state_[x] != 0) return;  // classified once; the filter is fixed
      if (could_change(x)) {
        add_region(x);
      } else {
        state_[x] = kPinned;
        boundary_.push_back(x);
      }
    });
  }
  if (!overflow) return true;
  // Reset only the touched scratch entries (keeps discovery o(n)).
  for (const VertexId x : region_) state_[x] = 0;
  for (const VertexId x : boundary_) state_[x] = 0;
  region_.clear();
  boundary_.clear();
  return false;
}

bool LocalizedUpdater::DeleteCascade(const Graph& g_before,
                                     const Graph& g_after,
                                     std::span<const EdgeEdit> effective,
                                     int h,
                                     const LocalizedUpdateOptions& options,
                                     LocalizedUpdateStats* local) {
  const VertexId n = g_after.num_vertices();
  next_core_ = base_core_;
  mask_.Assign(n, true);

  // Work caps: the cascade degenerates to the warm fallback rather than
  // grinding through a graph-wide demotion wave.
  const size_t max_changed = options.MaxRegion(n);
  const size_t max_rechecks = 256 + 8 * max_changed;
  size_t rechecks = 0;
  size_t changed = 0;

  worklist_.clear();
  auto enqueue = [&](VertexId v) {
    if (state_[v] == kQueued || next_core_[v] == 0) return;
    state_[v] = kQueued;
    worklist_.push_back(v);
  };

  // Seeds: only vertices within distance h-1 of a deleted endpoint (in the
  // PRE-edit graph) can have lost h-neighbors or h-paths.
  for (const EdgeEdit& e : effective) {
    HCORE_DCHECK(!e.insert);
    for (const VertexId s : {e.u, e.v}) {
      enqueue(s);
      bfs_.Run(g_before, mask_, s, h - 1,
               [&](VertexId x, int) { enqueue(x); });
    }
  }

  bool capped = false;
  while (!worklist_.empty() && !capped) {
    const VertexId v = worklist_.back();
    worklist_.pop_back();
    state_[v] = 0;
    const uint32_t level = next_core_[v];
    if (level == 0) continue;
    if (++rechecks > max_rechecks) {
      capped = true;
      break;
    }
    const LevelMask support{&next_core_, level};
    ++local->hdegree_computations;
    if (bfs_.HDegree(g_after, support, v, h) >= level) continue;

    // Violated: v drops one level. Level-mates within distance h may have
    // lost v (or a path through it) from their support — recheck them, and
    // v itself at its looser mask.
    if (next_core_[v] == base_core_[v]) {
      if (++changed > max_changed) {
        capped = true;
        break;
      }
    }
    next_core_[v] = level - 1;
    enqueue(v);
    bfs_.Run(g_after, mask_, v, h, [&](VertexId x, int) {
      if (next_core_[x] == level) enqueue(x);
    });
  }
  local->region = changed;
  for (const VertexId v : worklist_) state_[v] = 0;
  worklist_.clear();
  return !capped;
}

}  // namespace hcore
