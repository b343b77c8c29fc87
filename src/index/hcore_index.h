// Queryable (k,h)-core index: one object that owns every decomposition
// artifact for a graph and serves point queries from immutable snapshots
// while batched edge updates rebuild the next epoch.
//
// The paper's §7 future work treats the per-vertex core spectrum
// (core_1(v), ..., core_H(v)) as the queryable artifact of a graph; this
// layer is the serving side of that idea. It unifies three previously
// separate consumers' machinery:
//
//   * the multi-h sweep of core/spectrum.* (one decomposition per level)
//     builds the initial per-level core vectors;
//   * the core-component dendrogram of core/hierarchy.* is built lazily,
//     per level, on first query — never eagerly at update time;
//   * the localized level repair of core/incremental.* drives ApplyBatch,
//     which merges a whole batch of edits into ONE copy-on-write CSR
//     splice plus one repair per h level, run level by level in a single
//     loop — localized for a pure (all-insert or all-delete) batch whose
//     candidate region stays small, else a whole-graph re-decomposition. This is the one write front door: every edge
//     update, single or batched, goes through it.
//
// Concurrency model: readers call snapshot() and query the returned
// HCoreSnapshot for as long as they like; snapshots are immutable (lazy
// hierarchies are built under an internal mutex, which is the only point of
// reader-reader contention) and epoch-stamped. A writer running ApplyBatch
// never blocks readers: it prepares the next snapshot off to the side and
// publishes it with a pointer swap. Concurrent writers are GROUP-COMMITTED:
// while a leader runs the write path, later ApplyBatch callers enqueue
// their edits and block; the next leader drains the queue, applies the
// concatenated batch (arrival order preserved, so last-edit-wins holds
// across writers) as ONE epoch, and wakes every coalesced writer with its
// own attributed effective-edit count. A lone writer gets exactly one
// epoch per effective batch. The leader repairs the levels serially on its
// own thread: the index starts no threads, so the only concurrency is the
// callers' readers and writers.
//
// Dirty flags: after a batch, levels whose core vector came out identical
// to the previous epoch share the old vector (Cores(h) returns the same
// reference in both epochs) and their derived artifacts are simply not
// rebuilt unless queried — each level's core hierarchy is the snapshot's
// one lazy cache, and component, community and densest queries all read
// it.

#ifndef HCORE_INDEX_HCORE_INDEX_H_
#define HCORE_INDEX_HCORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/community.h"
#include "core/hierarchy.h"
#include "core/incremental.h"
#include "core/kh_core.h"
#include "graph/graph.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// Configuration for an HCoreIndex.
struct HCoreIndexOptions {
  /// Indexed distance thresholds: h in [1, max_h].
  int max_h = 2;
  /// Per-level decomposition configuration (its `h` and bound pointers are
  /// managed by the index).
  KhCoreOptions base;
  /// Localized maintenance tuning (core/incremental.h): pure small batches
  /// re-peel only the candidate region per level, falling back to the warm
  /// whole-graph re-decomposition past the region/batch caps.
  LocalizedUpdateOptions localized;
};

/// Cumulative cost counters for one index (Table-3-style: serving queries
/// must leave `decomposition` flat; only Build/ApplyBatch may move it).
struct HCoreIndexStats {
  /// Epochs published: batches (one coalesced group under concurrent
  /// writers) that applied at least one edit. Each epoch is exactly one
  /// splice of the graph (Graph::ApplyCanonicalEdits).
  uint64_t batches_applied = 0;
  /// Individual edge edits that had an effect.
  uint64_t edits_applied = 0;
  /// Inserts refused by the growth cap (Graph::kMaxGrowth).
  uint64_t edits_rejected = 0;
  /// Whole-graph per-level decompositions run (initial build and fallback
  /// levels of ApplyBatch).
  uint64_t level_decompositions = 0;
  /// Levels whose core vector was unchanged by a batch (artifact reuse).
  uint64_t levels_unchanged = 0;
  /// ApplyBatch levels served by the localized region re-peel vs by the
  /// warm whole-graph fallback. Per effective batch the two deltas sum to
  /// max_h: every dirty level is exactly one or the other.
  uint64_t localized_updates = 0;
  uint64_t fallback_repeels = 0;
  /// Aggregate engine counters over every decomposition the index ran.
  KhCoreStats decomposition;

  /// Field-wise accumulation — the ONE place that knows every counter
  /// (the index folds each batch's delta in with it; a new field only
  /// needs adding here).
  void Add(const HCoreIndexStats& other);
};

/// One immutable epoch of the index. Thread-safe for concurrent readers;
/// obtained from HCoreIndex::snapshot() and valid for as long as the
/// shared_ptr is held, across any number of concurrent updates.
class HCoreSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  const Graph& graph() const { return *graph_; }
  int max_h() const { return static_cast<int>(levels_.size()); }

  /// Core index of `v` at distance threshold `h` (1-based, h <= max_h).
  uint32_t CoreOf(VertexId v, int h) const;

  /// The spectrum (core_1(v), ..., core_H(v)).
  std::vector<uint32_t> Spectrum(VertexId v) const;

  /// Full core vector at level h (index by vertex id).
  const std::vector<uint32_t>& Cores(int h) const;

  /// h-degeneracy Ĉ_h at level h.
  uint32_t Degeneracy(int h) const;

  /// Core-component dendrogram at level h, with its per-level core sizes
  /// and edge counts. Built lazily on first call (one O(n α(n) + m) sweep)
  /// and cached for the lifetime of the snapshot; CoreComponentOf,
  /// TopDensestLevels and Community read it.
  const CoreHierarchy& Hierarchy(int h) const;

  /// Vertices of the connected component of the (k,h)-core containing `v`
  /// (sorted). Empty when core_h(v) < k. k = 0 yields v's component of G.
  std::vector<VertexId> CoreComponentOf(VertexId v, uint32_t k, int h) const;

  /// One row of a TopDensestLevels answer: the (k,h)-core C_k with its size,
  /// induced edge count, and edge density |E(G[C_k])| / |C_k|.
  struct LevelDensity {
    uint32_t k = 0;
    uint32_t vertices = 0;
    uint64_t edges = 0;
    double density = 0.0;
  };

  /// The `top_k` core levels of threshold h with the highest edge density
  /// |E(G[C_k])| / |C_k|, densest first (ties: deeper level first), read off
  /// the counts of the cached Hierarchy(h): after the first build, a query
  /// costs O(Ĉ_h log Ĉ_h). This is plain edge density, f_1/2 in the paper's
  /// §5.3 terms; at h >= 2 it is not the average h-degree f_h that
  /// DensestByCoreDecomposition (apps/densest.h) maximizes.
  std::vector<LevelDensity> TopDensestLevels(int h, size_t top_k) const;

  /// Distance-generalized cocktail-party community of `query` at threshold
  /// h, read off this epoch's cached Hierarchy(h) (CommunityFromHierarchy):
  /// after the first build, a query costs its ancestor walk and the size of
  /// the answer. Query ids must be valid vertices.
  CommunityResult Community(const std::vector<VertexId>& query, int h) const;

  /// Hierarchies built so far — at most one per level (for tests and
  /// serving telemetry).
  uint64_t lazy_builds() const {
    return lazy_builds_.load(std::memory_order_relaxed);
  }

  // --- Benchmark-compat accessors (serve/sharded_service.h): names the
  // frozen perfbench/ adapter still calls. Delete with the next change to
  // the benchmark. ---
  uint64_t service_epoch() const { return epoch_; }
  int num_shards() const { return 1; }
  const HCoreSnapshot& shard_snapshot(int s) const {
    HCORE_CHECK(s == 0);
    return *this;
  }
  // --- end benchmark-compat ---

 private:
  friend class HCoreIndex;

  struct Level {
    std::shared_ptr<const std::vector<uint32_t>> core;
    uint32_t degeneracy = 0;
  };

  HCoreSnapshot(std::shared_ptr<const Graph> graph, std::vector<Level> levels,
                uint64_t epoch);

  std::shared_ptr<const Graph> graph_;
  std::vector<Level> levels_;
  uint64_t epoch_ = 0;

  // The lazily built, logically-const artifact, one slot per level
  // (guarded: snapshots are shared by concurrent readers).
  mutable Mutex lazy_mu_;
  mutable std::vector<std::unique_ptr<CoreHierarchy>> hierarchy_
      GUARDED_BY(lazy_mu_);
  mutable std::atomic<uint64_t> lazy_builds_{0};
};

/// The index: owns the graph and its decomposition artifacts, serves
/// immutable snapshots, and advances epochs under batched edge updates.
class HCoreIndex {
 public:
  /// Decomposes `g` for every h in [1, options.max_h] with KhCoreSpectrum
  /// and publishes epoch 0.
  explicit HCoreIndex(Graph g, const HCoreIndexOptions& options = {});

  int max_h() const { return options_.max_h; }

  /// The current epoch. Cheap (one pointer copy under a mutex); the caller
  /// keeps the snapshot alive independently of future updates.
  std::shared_ptr<const HCoreSnapshot> snapshot() const EXCLUDES(mu_);

  /// Applies a batch of edge edits: ONE splice via Graph::ApplyCanonicalEdits
  /// (an O(n + m) merge copy), then, for h = 1 up to max_h on the writer's
  /// thread, either a LOCALIZED repair (pure batches of up to
  /// options.localized.max_batch effective edits whose candidate region
  /// fits the cap — see core/incremental.h; a batch with both effective
  /// inserts and deletes never localizes) or a whole-graph
  /// re-decomposition, which after a pure-insert batch takes the old cores
  /// as its lower bound and otherwise peels from its own bounds. The
  /// localized_updates / fallback_repeels stats record which path served
  /// each level. Publishes a new epoch unless every edit was a no-op.
  /// Returns the number of edits from THIS call's batch that had an effect;
  /// the call may block while a leader applies a coalesced epoch containing
  /// it (see the group commit note above). Thread-safe; concurrent readers
  /// are never blocked.
  size_t ApplyBatch(std::span<const EdgeEdit> edits)
      EXCLUDES(commit_mu_, mu_);

  /// Single-edit conveniences (each is a batch of one).
  bool InsertEdge(VertexId u, VertexId v)
      EXCLUDES(commit_mu_, mu_);
  bool DeleteEdge(VertexId u, VertexId v)
      EXCLUDES(commit_mu_, mu_);

  /// Cumulative cost counters (serving queries never moves them).
  HCoreIndexStats stats() const EXCLUDES(mu_);

  /// Zeroes the cumulative counters (the published snapshot and its epoch
  /// are untouched). Lets a long-lived serving process start a fresh
  /// measurement window — `stats reset` in the serve REPL.
  void ResetStats() EXCLUDES(mu_);

 private:
  /// One queued write. `applied`/`done` belong to the enqueuing writer; the
  /// leader writes `applied` between dequeue and the `done` handoff under
  /// commit_mu_, which orders the accesses.
  struct PendingWrite {
    std::span<const EdgeEdit> edits;
    size_t applied = 0;
    bool done = false;
  };

  /// Applies one drained group as a single epoch (nothing is published when
  /// no edit has an effect) and writes each member's attributed
  /// effective-edit count into its PendingWrite.
  void CommitGroup(std::span<PendingWrite* const> group) REQUIRES(writer_)
      EXCLUDES(mu_);

  /// Advances every level from `prev` to the spliced graph `g`, one level
  /// at a time: the localized repair on `updater_` for a pure batch, else
  /// the warm whole-graph fallback.
  std::vector<HCoreSnapshot::Level> DecomposeAll(
      const Graph& g, const HCoreSnapshot& prev, bool pure_insert,
      bool pure_delete, std::span<const EdgeEdit> effective,
      HCoreIndexStats* stats) REQUIRES(writer_);

  HCoreIndexOptions options_;
  // Group commit: queued writers and the leader-election flag. The flag is
  // the one writer lock: the elected leader claims `writer_`, the role that
  // owns the write path's state below.
  Mutex commit_mu_;
  CondVar commit_cv_;
  std::vector<PendingWrite*> commit_queue_ GUARDED_BY(commit_mu_);
  bool commit_leader_ GUARDED_BY(commit_mu_) = false;
  ThreadRole writer_;
  mutable Mutex mu_;       // guards snap_ swap and stats_
  std::shared_ptr<const HCoreSnapshot> snap_ GUARDED_BY(mu_);
  HCoreIndexStats stats_ GUARDED_BY(mu_);
  // Writer-only scratch: every localized attempt runs on it.
  LocalizedUpdater updater_ GUARDED_BY(writer_);
};

}  // namespace hcore

#endif  // HCORE_INDEX_HCORE_INDEX_H_
