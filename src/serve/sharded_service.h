// Serving front door: one HCoreIndex behind group commit and epoch views.
//
// The service adds three things to the index it wraps:
//
//   * EPOCH VIEWS. Every effective write publishes one immutable
//     ShardedServiceView over the index's new snapshot. Readers take the
//     current view with one pointer copy (view()) and may query it for as
//     long as they hold it; a later write never changes what it answers.
//     Component and community queries go straight to the snapshot's lazily
//     cached core hierarchy and core vectors.
//   * GROUP COMMIT (ShardedServiceOptions::group_commit). Concurrent
//     writers coalesce into one epoch: while a leader runs the write path,
//     later ApplyBatch callers enqueue their edits and block; the next
//     leader drains the queue, applies the concatenated batch (arrival
//     order preserved, so last-edit-wins semantics hold across writers)
//     under update_mu_, and wakes every coalesced writer with its own
//     attributed effective-edit count.
//   * PAGE ACCOUNTING. Each published epoch records how many graph pages it
//     shared with its predecessor and how many it copied (GraphMemoryStats).
//
// The type and option names carry "sharded" from an earlier design that
// replicated the index across shards; the service now always holds exactly
// one index.

#ifndef HCORE_SERVE_SHARDED_SERVICE_H_
#define HCORE_SERVE_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "apps/community.h"
#include "index/hcore_index.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// Configuration for a ShardedHCoreService.
struct ShardedServiceOptions {
  /// Must be 1 (checked at construction): the service holds one index.
  int num_shards = 1;
  /// Index configuration.
  HCoreIndexOptions index;
  /// Coalesce concurrent ApplyBatch callers into one epoch (see the group
  /// commit note above). Off, writers simply serialize on update_mu_, one
  /// epoch each — the right setting for single-writer deployments and for
  /// tests that count epochs per batch.
  bool group_commit = false;
};

/// Cumulative service counters.
struct ShardedServiceStats {
  HCoreIndexStats index;
  /// Graph storage accounting: resident_bytes/graph_pages describe the
  /// CURRENT epoch's paged CSR; pages_shared/pages_copied accumulate what
  /// each published epoch reused vs rebuilt of its predecessor's pages.
  GraphMemoryStats memory;
};

/// One published epoch of the service. Immutable and thread-safe; obtained
/// from ShardedHCoreService::view() and valid for as long as the shared_ptr
/// is held, across any number of updates.
class ShardedServiceView {
 public:
  /// The index snapshot this view serves.
  const HCoreSnapshot& snapshot() const { return *snapshot_; }
  const Graph& graph() const { return snapshot_->graph(); }
  int max_h() const { return snapshot_->max_h(); }

  /// Number of effective batches applied before this view.
  uint64_t service_epoch() const { return snapshot_->epoch(); }

  // The two accessors below exist for the benchmark adapter, which was
  // written against the replicated-shard service and is kept unchanged.
  int num_shards() const { return 1; }
  const HCoreSnapshot& shard_snapshot(int s) const {
    HCORE_CHECK(s == 0);
    return *snapshot_;
  }

  uint32_t CoreOf(VertexId v, int h) const { return snapshot_->CoreOf(v, h); }

  std::vector<uint32_t> Spectrum(VertexId v) const {
    return snapshot_->Spectrum(v);
  }

  uint32_t Degeneracy(int h) const { return snapshot_->Degeneracy(h); }

  std::vector<HCoreSnapshot::LevelDensity> TopDensestLevels(
      int h, size_t top_k) const {
    return snapshot_->TopDensestLevels(h, top_k);
  }

  /// Vertices of the connected component of the (k,h)-core containing `v`
  /// (sorted; empty when core_h(v) < k or v is out of range).
  std::vector<VertexId> CoreComponentOf(VertexId v, uint32_t k, int h) const {
    return snapshot_->CoreComponentOf(v, k, h);
  }

  /// Distance-generalized cocktail-party community of `query` at threshold
  /// h, computed from this epoch's level-h cores.
  CommunityResult Community(const std::vector<VertexId>& query, int h) const {
    return DistanceCocktailPartyFromCores(graph(), query, h,
                                          snapshot_->Cores(h));
  }

 private:
  friend class ShardedHCoreService;

  explicit ShardedServiceView(std::shared_ptr<const HCoreSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const HCoreSnapshot> snapshot_;
};

/// The service. Thread-safe: any number of concurrent readers (view() plus
/// queries on the returned view); writers serialize among themselves (or
/// coalesce under group commit) and never block readers.
class ShardedHCoreService {
 public:
  /// Decomposes `g` once and publishes epoch 0.
  explicit ShardedHCoreService(Graph g,
                               const ShardedServiceOptions& options = {});

  int max_h() const { return options_.index.max_h; }

  /// The current view (one pointer copy).
  std::shared_ptr<const ShardedServiceView> view() const EXCLUDES(mu_);

  /// Applies one edit batch: canonicalizes it against the current epoch,
  /// hands the effective edits to the index (HCoreIndex::ApplyPrepared: one
  /// copy-on-write page splice plus per-level repair), and publishes the
  /// next view. Returns the number of effective edits from THIS call's
  /// batch (0 publishes nothing); under group_commit the call may block
  /// while a leader applies a coalesced epoch containing it. Readers
  /// holding older views are never blocked and never see a partial batch.
  size_t ApplyBatch(std::span<const EdgeEdit> edits)
      EXCLUDES(commit_mu_, update_mu_, mu_);

  /// Cumulative index counters and page accounting.
  ShardedServiceStats stats() const EXCLUDES(mu_);

  /// Zeroes every counter (epochs and published views are untouched) —
  /// `stats reset` in the serve REPL.
  void ResetStats() EXCLUDES(mu_);

 private:
  /// One queued write under group commit. `applied`/`edits` are owned by
  /// the enqueuing writer and touched by the leader only between enqueue
  /// and the done handoff under commit_mu_, which orders the accesses.
  struct PendingWrite {
    std::span<const EdgeEdit> edits;
    size_t applied = 0;
    bool done = false;
  };

  /// The write path proper: `effective`/`summary` are the canonicalized
  /// batch against `prev`. Index applies, pages accounted, view published.
  void ApplyEffectiveLocked(
      const std::shared_ptr<const ShardedServiceView>& prev,
      std::span<const EdgeEdit> effective, const EdgeEditSummary& summary)
      REQUIRES(update_mu_) EXCLUDES(mu_);

  /// Group-commit front door: enqueue, elect a leader, leader drains the
  /// queue and applies the concatenated batch, everyone returns its own
  /// attributed effective count.
  size_t GroupCommit(std::span<const EdgeEdit> edits)
      EXCLUDES(commit_mu_, update_mu_, mu_);

  /// Applies one drained group as a single epoch and writes each member's
  /// attributed effective-edit count into its PendingWrite.
  void CommitGroup(std::span<PendingWrite* const> group)
      EXCLUDES(update_mu_, mu_);

  ShardedServiceOptions options_;
  HCoreIndex index_;
  Mutex update_mu_;   // serializes writers
  mutable Mutex mu_;  // guards view_ swap and memory_
  std::shared_ptr<const ShardedServiceView> view_ GUARDED_BY(mu_);
  GraphMemoryStats memory_ GUARDED_BY(mu_);  // cumulative shared/copied
  // Group-commit state: queued writers and the leader-election flag.
  Mutex commit_mu_;
  CondVar commit_cv_;
  std::vector<PendingWrite*> commit_queue_ GUARDED_BY(commit_mu_);
  bool commit_leader_ GUARDED_BY(commit_mu_) = false;
};

}  // namespace hcore

#endif  // HCORE_SERVE_SHARDED_SERVICE_H_
