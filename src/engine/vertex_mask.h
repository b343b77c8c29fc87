// Epoch-stamped alive set over dense vertex ids — the subgraph-view layer.
//
// Every peeling algorithm in hcore operates on the subgraph induced by the
// "alive" vertices, and most of them reset, shrink, or locally perturb that
// set many times per run (per-partition resets in h-LB+UB, branch flips in
// the h-club search, per-level views in the hierarchy). VertexMask replaces
// the ad-hoc `std::vector<uint8_t> alive` buffers that used to be threaded
// through graph/, traversal/, core/, and apps/ with one type that supports:
//
//   * O(1) IsAlive / Kill / Revive,
//   * O(1) whole-set resets (ResetAllAlive / ResetAllDead) via epoch
//     stamping — no O(n) refill, no reallocation,
//   * O(1) Checkpoint() plus RestoreTo() that undoes only the toggles made
//     since the checkpoint (so branch-and-bound search and hierarchy sweeps
//     stop copying whole masks),
//   * an exact alive count maintained incrementally.
//
// Not thread-safe for concurrent mutation; concurrent readers are fine
// while no mutation is in flight.

#ifndef HCORE_ENGINE_VERTEX_MASK_H_
#define HCORE_ENGINE_VERTEX_MASK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace hcore {

/// Alive/dead view of the vertex set [0, size()).
class VertexMask {
 public:
  /// Mask over `n` vertices, all alive or all dead.
  explicit VertexMask(VertexId n = 0, bool initially_alive = true) {
    Assign(n, initially_alive);
  }

  /// Mask over `n` vertices with exactly `alive_vertices` alive.
  VertexMask(VertexId n, std::span<const VertexId> alive_vertices)
      : VertexMask(n, false) {
    for (VertexId v : alive_vertices) Revive(v);
  }

  /// Resizes to `n` vertices and resets every vertex to `alive`.
  void Assign(VertexId n, bool alive) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    n_ = n;
    if (alive) {
      ResetAllAlive();
    } else {
      ResetAllDead();
    }
  }

  VertexId size() const { return n_; }

  /// Number of alive vertices (maintained incrementally, O(1)).
  VertexId num_alive() const { return alive_count_; }

  bool IsAlive(VertexId v) const {
    HCORE_DCHECK(v < n_);
    return (stamp_[v] == epoch_) == stamped_alive_;
  }

  /// Marks `v` dead. No-op if already dead. Logged for RestoreTo().
  void Kill(VertexId v) {
    HCORE_DCHECK(v < n_);
    if (!IsAlive(v)) return;
    stamp_[v] = stamped_alive_ ? epoch_ - 1 : epoch_;
    --alive_count_;
    undo_log_.push_back(v);
  }

  /// Marks `v` alive. No-op if already alive. Logged for RestoreTo().
  void Revive(VertexId v) {
    HCORE_DCHECK(v < n_);
    if (IsAlive(v)) return;
    stamp_[v] = stamped_alive_ ? epoch_ : epoch_ - 1;
    ++alive_count_;
    undo_log_.push_back(v);
  }

  void Set(VertexId v, bool alive) {
    if (alive) {
      Revive(v);
    } else {
      Kill(v);
    }
  }

  /// Makes every vertex alive in O(1) (epoch bump; no buffer refill).
  /// Invalidates outstanding checkpoints.
  void ResetAllAlive() {
    BumpEpoch();
    stamped_alive_ = false;  // stale stamps != epoch_ => alive
    alive_count_ = n_;
  }

  /// Makes every vertex dead in O(1). Invalidates outstanding checkpoints.
  void ResetAllDead() {
    BumpEpoch();
    stamped_alive_ = true;  // stale stamps != epoch_ => dead
    alive_count_ = 0;
  }

  /// Opaque undo-log position. Toggles (Kill/Revive) made after the
  /// checkpoint can be rolled back with RestoreTo(). O(1). Checkpoints are
  /// invalidated by ResetAllAlive/ResetAllDead/Assign.
  size_t Checkpoint() const { return undo_log_.size(); }

  /// Rolls the mask back to the state captured by `checkpoint`, undoing only
  /// the toggles made since (O(#toggles), not O(n)).
  void RestoreTo(size_t checkpoint) {
    HCORE_DCHECK(checkpoint <= undo_log_.size());
    while (undo_log_.size() > checkpoint) {
      const VertexId v = undo_log_.back();
      undo_log_.pop_back();
      // Invert the recorded toggle without re-logging it.
      if (IsAlive(v)) {
        stamp_[v] = stamped_alive_ ? epoch_ - 1 : epoch_;
        --alive_count_;
      } else {
        stamp_[v] = stamped_alive_ ? epoch_ : epoch_ - 1;
        ++alive_count_;
      }
    }
  }

  /// Calls `fn(v)` for every alive vertex, ascending. O(n).
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    for (VertexId v = 0; v < n_; ++v) {
      if (IsAlive(v)) fn(v);
    }
  }

  /// Alive vertices as a sorted vector. O(n).
  std::vector<VertexId> AliveVertices() const {
    std::vector<VertexId> out;
    out.reserve(alive_count_);
    ForEachAlive([&out](VertexId v) { out.push_back(v); });
    return out;
  }

 private:
  void BumpEpoch() {
    undo_log_.clear();
    if (++epoch_ == 0) {
      // Stamp wraparound (after ~4B resets): stale stamps could collide with
      // re-used epoch values, so pay one O(n) refill and restart.
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  // A vertex is alive iff (stamp_[v] == epoch_) == stamped_alive_. Stamps
  // are only ever written as epoch_ or epoch_ - 1, and epochs increase, so
  // stale stamps from older epochs never equal the current epoch.
  std::vector<uint32_t> stamp_;
  std::vector<VertexId> undo_log_;
  uint32_t epoch_ = 0;  // BumpEpoch() in Assign() makes the first epoch 1.
  bool stamped_alive_ = false;
  VertexId n_ = 0;
  VertexId alive_count_ = 0;
};

}  // namespace hcore

#endif  // HCORE_ENGINE_VERTEX_MASK_H_
