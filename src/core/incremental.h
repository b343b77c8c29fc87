// Dynamic maintenance of a (k,h)-core decomposition under edge updates.
//
// LocalizedUpdater advances ONE level's core vector across a pure edit
// batch with two exact sub-strategies:
//
//   * DELETION — violation cascade, output-sensitive. Core indexes only
//     drop, so maintain a working vector `cur` (starting at the old
//     cores, an upper bound) and repeatedly fix violations: v is violated
//     when its h-degree inside {u : cur(u) >= cur(v)} falls below
//     cur(v); each violation decrements cur(v) and re-queues the
//     level-mates within distance h. At the fixpoint every level set
//     {cur >= k} is (k,h)-cohesive (so cur <= true core) and a vertex at
//     its true core is never violated (its true core's members all keep
//     cur >= true core, an induction), so cur never drops past the truth:
//     cur == new core exactly. Only vertices that actually change — plus
//     one h-bounded BFS per recheck — are ever touched.
//
//   * INSERTION — candidate-region re-peel. Fix a level k and let C be
//     the post-insert (k,h)-core. Re-running the shrink-to-fixpoint on C in
//     the pre-insert graph removes exactly its vertices of old index below
//     k, one at a time, and every removal is caused either (a) by an
//     inserted edge directly — the removed vertex had a <= h path through
//     the edge inside C, so it lies within distance h-1 of one of the
//     edge's endpoints — or (b) by an earlier removal within distance h
//     inside C. So every changed vertex is linked to an inserted endpoint
//     by a chain of changed vertices with hops of length <= h, and it
//     passes the level filter old_core(x) < k, where a change at level k
//     needs k <= min(core'(u), core'(v)) for some inserted edge (u, v).
//
//     Discovery over-approximates that chain closure in the post-insert
//     graph (distances only shrank there) with bounded BFS, below a TRIAL
//     bound: seed every vertex with old_core < bound within distance h-1 of
//     an inserted endpoint, then expand depth h from every accepted vertex,
//     accepting filter-passers. Visited vertices that fail the filter form
//     the pinned boundary — a superset of N_h(region) \ region. The region
//     is re-peeled through the shared PeelingEngine on a VertexMask holding
//     region ∪ boundary alive, boundary vertices pinned at their old index
//     so their pops replay the surrounding true peel bucket by bucket. The
//     peel is provably exact on every level below the bound, so a trial is
//     accepted exactly when the computed min endpoint core of every edit
//     stays below it (no deeper level can then have changed); otherwise the
//     bound escalates geometrically and the peel reruns. An escalated trial
//     also gates admissions on h-degree: the failed trial B was exact below
//     B, so a vertex with old_core >= B can only change by reaching a level
//     >= B, which needs h-degree >= B in the post-insert graph.
//
// The updater returns false when the region (or the cascade's work)
// exceeds LocalizedUpdateOptions::MaxRegion — edits that restructure a
// large part of the graph. HCoreIndex (index/hcore_index.h), the one write
// front door, then re-decomposes that level of the whole graph (seeded by
// the old cores after inserts); it sends mixed batches there directly,
// since each strategy is exact only for a pure batch. Both paths return
// exactly the decomposition a fresh run would produce; the fuzz suite
// (tests/incremental_fuzz_test.cc) checks that at every step.

#ifndef HCORE_CORE_INCREMENTAL_H_
#define HCORE_CORE_INCREMENTAL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/bounded_bfs.h"

namespace hcore {

/// Tuning for the localized update path.
struct LocalizedUpdateOptions {
  /// Master switch; off forces every update onto the warm fallback.
  bool enable = true;
  /// Fallback threshold: discovery aborts (and the caller re-peels the
  /// whole graph) once the candidate region exceeds
  /// max(min_region_cap, max_region_fraction * n) vertices — past that the
  /// localized peel stops being cheaper than the re-peel it replaces.
  double max_region_fraction = 0.25;
  size_t min_region_cap = 64;
  /// Batch cap (HCoreIndex): batches with more effective edits than this
  /// skip discovery entirely (their joint region is rarely local).
  size_t max_batch = 8;

  size_t MaxRegion(VertexId n) const {
    return std::max(min_region_cap,
                    static_cast<size_t>(max_region_fraction * n));
  }
};

/// Outcome of one localized level-update attempt.
struct LocalizedUpdateStats {
  /// Inserts: candidate vertices re-peeled (final trial). Deletes:
  /// vertices the cascade demoted.
  size_t region = 0;
  /// Table-3-style counters covering discovery + the region peel.
  uint64_t visited = 0;
  uint64_t hdegree_computations = 0;
  uint64_t decrement_updates = 0;
};

/// Localized re-peel machinery with scratch reused across updates (BFS
/// buffers, masks, the region). Not thread-safe; callers serialize.
class LocalizedUpdater {
 public:
  LocalizedUpdater() = default;
  // Benchmark compat: the frozen perfbench/ constructs LocalizedUpdater(1).
  // The thread count is ignored; delete with the next change to perfbench/.
  explicit LocalizedUpdater(int /*num_threads*/) {}

  /// Advances `core` — the exact (k,h)-core indexes of `g_before` at
  /// threshold `h` — across a pure batch of edits, in place. `effective`
  /// must be the edits `g_before.CanonicalEffectiveEdits(...)` returned (all
  /// insertions when `inserts`, all deletions otherwise) and `g_after`
  /// `g_before.ApplyCanonicalEdits(effective)`. On success `core` holds
  /// the exact post-edit indexes (resized when the batch grew the graph)
  /// and true is returned. Returns false — leaving `core` untouched — when
  /// the region overflows the cap or the path is disabled.
  bool UpdateLevel(const Graph& g_before, const Graph& g_after,
                   std::span<const EdgeEdit> effective, bool inserts, int h,
                   std::vector<uint32_t>* core,
                   const LocalizedUpdateOptions& options,
                   LocalizedUpdateStats* stats = nullptr);

 private:
  bool InsertUpdate(const Graph& g_after,
                    std::span<const EdgeEdit> effective, int h,
                    const LocalizedUpdateOptions& options,
                    LocalizedUpdateStats* local);
  /// Discovery for one insertion trial (see the file comment): fills
  /// `region_` and `boundary_` with the vertices of old core < `bound`
  /// (h-degree >= `hdeg_gate` too when old core >= a nonzero gate) and
  /// their pinned surroundings. Returns false, with both cleared, once the
  /// region exceeds `max_region`.
  bool FindRegion(const Graph& g, std::span<const EdgeEdit> effective, int h,
                  uint32_t bound, uint32_t hdeg_gate, size_t max_region);
  bool DeleteCascade(const Graph& g_before, const Graph& g_after,
                     std::span<const EdgeEdit> effective, int h,
                     const LocalizedUpdateOptions& options,
                     LocalizedUpdateStats* local);

  // Discovery, the region peel and the delete cascade. Discovery's h-degree
  // gate runs inside a bfs_ visitor, so it has a scratch of its own.
  BoundedBfs bfs_;
  BoundedBfs gate_bfs_;
  VertexMask mask_;
  // Per-vertex scratch, zero between calls: kRegion/kPinned during an
  // insertion trial, the in-worklist flag during the delete cascade.
  std::vector<uint8_t> state_;
  std::vector<VertexId> region_;
  std::vector<VertexId> boundary_;
  std::vector<uint32_t> base_core_;
  std::vector<uint32_t> next_core_;
  std::vector<VertexId> worklist_;
};

}  // namespace hcore

#endif  // HCORE_CORE_INCREMENTAL_H_
