// Round-synchronous parallel peeling (the ROADMAP's "failed experiment,
// done right").
//
// The retired prototype parallelized the bucket loop itself and lost at
// every thread count (0.69-0.84x): preserving the global bucket order
// serializes exactly the part that matters. The scheme here drops the order
// instead, following the asynchronous-worklist idiom of Galois/ParK-style
// k-core engines: for the current level k, the frontier is EVERY alive
// vertex whose key is <= k, and the whole frontier is removed in one batch.
// That is a valid serialization of the sequential peel — keys only shrink as
// vertices die, so once a key reaches <= k it stays there, and any removal
// order within the level yields the same cores. Each batch removal triggers
// a parallel repair pass over the survivors it affected; the level drains
// when no survivor crosses anymore, and k advances (jumping over empty
// levels to the minimum surviving key).
//
// Two engines share the idea:
//
//   * ParallelClassicCore (h = 1): pure atomic counters, no BFS. Degrees
//     live in an atomic array; workers claim crossing vertices exactly once
//     via fetch_sub (the decrement that takes a neighbor from k+1 to k wins
//     the claim), Galois' validDegree/trim/flag scheme collapsed into one
//     counter plus a claimed flag.
//
//   * ParallelPeeler::Peel (h >= 1, generic): keys are h-degrees, so a
//     removal's blast radius is the h-neighborhood, not the adjacency list.
//     Each round batch-kills the frontier, marks every alive vertex within
//     distance h of a killed one (per-worker BoundedBfs scratch through
//     HDegreeComputer::MarkNeighborhoods — a killed vertex anchors every
//     path its removal invalidates, and the first killed vertex on a lost
//     member's old shortest path lies within h of it), then repairs the
//     marked survivors: one whose sources all sit at distance exactly h
//     provably lost exactly that many h-ball members and takes an O(1)
//     decrement (the sequential engine's unit decrement, generalized to
//     batches — without it, hub-heavy h = 2 peels recomputed every touched
//     ball every round and ran 3-12x SLOWER than sequential); the rest are
//     recomputed in one deduplicated parallel batch.
//     Lazy-lower-bound keys (h-LB, h-LB+UB) are materialized the same way:
//     per-round batches instead of pop-requeue, which is why the Table-3
//     hdegree/decrement counters legitimately differ from the sequential
//     loop while pops stay equal for the eager algorithms (see
//     PeelingStats).
//
// Both fall back to the sequential bucket loop below a size threshold —
// dispatch latency would otherwise dominate small regions — via
// UseParallelPeel, the single gate every call site shares.

#ifndef HCORE_ENGINE_PARALLEL_PEEL_H_
#define HCORE_ENGINE_PARALLEL_PEEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/h_degree.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// Selects between the sequential bucket loop and the round-synchronous
/// parallel peel.
enum class ParallelPeelMode : uint8_t {
  kAuto,  ///< Parallel when threads >= 2 and the peel is large enough.
  kOff,   ///< Always the sequential bucket loop.
  kOn,    ///< Parallel whenever threads >= 2 (tests force small graphs).
};

/// kAuto floor: peels below this many vertices stay sequential even with
/// threads available (round dispatch would dominate).
inline constexpr uint64_t kParallelPeelAutoMinVertices = 32768;

/// kAuto average-degree floor (2m/n): round width tracks density, and on
/// sparse high-diameter graphs (road lattices: avg degree ~3.6) the peel
/// drains in long thin cascades whose per-round barrier swamps the work —
/// measured 0.5-0.7x at every thread count. Callers that can't cheaply
/// count the peel's edges pass kUnknownPeelEdges and the gate stays
/// size-only.
inline constexpr uint64_t kParallelPeelAutoMinAvgDegree = 8;
inline constexpr uint64_t kUnknownPeelEdges = UINT64_MAX;

/// The shared gate: should a peel over `peel_size` vertices (and
/// `peel_edges` undirected edges, when known) run the round-synchronous
/// engine? kAuto scales the size floor with the thread count — more
/// workers amortize the per-round fan-out sooner — and declines
/// thin-frontier shapes via the average-degree floor.
inline bool UseParallelPeel(ParallelPeelMode mode, int num_threads,
                            uint64_t peel_size,
                            uint64_t auto_min = kParallelPeelAutoMinVertices,
                            uint64_t peel_edges = kUnknownPeelEdges) {
  if (mode == ParallelPeelMode::kOff || num_threads < 2) return false;
  if (mode == ParallelPeelMode::kOn) return true;
  if (peel_edges != kUnknownPeelEdges &&
      2 * peel_edges < kParallelPeelAutoMinAvgDegree * peel_size) {
    return false;
  }
  return peel_size >= auto_min &&
         peel_size * static_cast<uint64_t>(num_threads) >= 4 * auto_min;
}

/// h-aware form of the gate, adding the work-parity rule: at h = 2 the
/// classified repair does the same total work as the sequential engine
/// (unit decrements cover the same deaths; measured within 3% on BFS
/// visits), so any speedup must come from real hardware — kAuto declines
/// when fewer than 2 hardware threads back the pool. At h = 1 the round
/// engine does strictly less work than the bucket queue, and at h >= 3
/// cross-source deduplication of ball recomputations dominates, so both
/// stay profitable even timeshared on one core (measured 1.2-3.1x).
/// `hardware_threads` is a parameter for tests; callers use the default.
inline bool UseParallelPeelForH(
    ParallelPeelMode mode, int num_threads, int h, uint64_t peel_size,
    uint64_t auto_min = kParallelPeelAutoMinVertices,
    uint64_t peel_edges = kUnknownPeelEdges,
    unsigned hardware_threads = std::thread::hardware_concurrency()) {
  if (!UseParallelPeel(mode, num_threads, peel_size, auto_min, peel_edges)) {
    return false;
  }
  if (mode == ParallelPeelMode::kAuto && h == 2 && hardware_threads < 2) {
    return false;
  }
  return true;
}

/// Classic (h = 1) core decomposition with atomic counters, Galois-style.
/// Writes core numbers into `core` (resized to n) and returns the
/// degeneracy; per-worker PeelingStats are merged into `stats` when given
/// (pops == n, matching the sequential classic peel; decrement_updates
/// counts every atomic fetch_sub). Spawns its own pool of `num_threads`
/// workers. Exact: cores are byte-identical to ClassicCoreDecomposition.
uint32_t ParallelClassicCore(const Graph& g, int num_threads,
                             std::vector<uint32_t>* core, PeelingStats* stats);

/// Reusable scratch + driver for the generic (h >= 1) round-synchronous
/// peel. Borrows an HDegreeComputer (whose pool and per-worker BFS scratch
/// do the parallel work); one instance serves many Peel calls, reusing its
/// O(n) buffers. Not thread-safe; the coordinator thread owns it — a
/// machine-checked contract: Peel REQUIRES the peeler's `coordinator()`
/// role, which guards every per-round scratch buffer.
class ParallelPeeler {
 public:
  /// `degrees` is borrowed, not owned; its thread count decides the
  /// fan-out width.
  explicit ParallelPeeler(HDegreeComputer* degrees) : degrees_(degrees) {}

  ParallelPeeler(const ParallelPeeler&) = delete;
  ParallelPeeler& operator=(const ParallelPeeler&) = delete;

  /// The single-coordinator capability; callers claim it with
  /// coordinator().Assume() where their protocol makes them the sole
  /// driver (see util/mutex.h).
  const ThreadRole& coordinator() const RETURN_CAPABILITY(coordinator_) {
    return coordinator_;
  }

  /// Peels levels [k_min, k_max] over the alive subgraph, mirroring
  /// PeelingEngine::Peel's window semantics: vertices are processed from
  /// level max(0, k_min - 1) up, and vertices whose keys stay above k_max
  /// survive (the h-LB+UB partition window relies on both).
  ///
  ///   * `vertices`: the peel's candidate set; every alive vertex the peel
  ///     may touch must be listed (the mask's alive set must be a subset).
  ///   * `keys`: per-vertex keys, written in place as degrees are
  ///     (re)computed. For v with `lazy[v]` != 0 the key is a lower bound,
  ///     materialized in per-round batches before v can die (h-LB's lazy
  ///     discipline); cleared as they materialize. `lazy` may be null.
  ///   * `assign(v, k)` runs on the coordinator thread for every killed
  ///     vertex, in batch order — the policy hook (assign cores, honor
  ///     k_min windows).
  ///
  /// Kills go through the mask on the coordinator thread only (VertexMask
  /// mutation is not thread-safe); workers only read it between barriers.
  template <typename AssignFn>
  void Peel(const Graph& g, int h, VertexMask* alive,
            std::span<const VertexId> vertices, std::vector<uint32_t>* keys,
            std::vector<uint8_t>* lazy, uint32_t k_min, uint32_t k_max,
            PeelingStats* stats, AssignFn&& assign) REQUIRES(coordinator_) {
    // Borrow contract: whoever coordinates the peeler is the sole driver
    // of the borrowed computer for the duration of the peel (rounds fan
    // out through its pool and rejoin this thread at each barrier).
    degrees_->coordinator().Assume();
    EnsureScratch(g.num_vertices());
    remaining_.clear();
    for (const VertexId v : vertices) {
      queued_[v] = 0;
      if (alive->IsAlive(v)) remaining_.push_back(v);
    }
    uint32_t k = (k_min == 0) ? 0 : k_min - 1;
    while (!remaining_.empty() && k <= k_max) {
      // Level scan: split the alive remainder on key <= k.
      candidates_.clear();
      next_remaining_.clear();
      uint32_t min_key = UINT32_MAX;
      for (const VertexId v : remaining_) {
        if (!alive->IsAlive(v)) continue;  // died in an earlier round
        const uint32_t key = (*keys)[v];
        if (key <= k) {
          candidates_.push_back(v);
        } else {
          min_key = std::min(min_key, key);
          next_remaining_.push_back(v);
        }
      }
      remaining_.swap(next_remaining_);
      if (candidates_.empty()) {
        if (remaining_.empty() || min_key > k_max) break;
        // Jump over empty levels. Lazy keys are lower bounds, so no level
        // below the minimum stored key can produce a candidate.
        k = min_key;
        continue;
      }
      round_.swap(candidates_);
      while (!round_.empty()) {
        // Materialize lazy lower bounds in one parallel batch; survivors
        // whose true degree lands above the level rejoin the remainder
        // (the sequential pop-requeue, batched).
        if (lazy != nullptr) {
          lazy_batch_.clear();
          for (const VertexId v : round_) {
            if ((*lazy)[v]) lazy_batch_.push_back(v);
          }
          if (!lazy_batch_.empty()) {
            batch_keys_.resize(lazy_batch_.size());
            degrees_->ComputeBatch(g, *alive, h, lazy_batch_,
                                   batch_keys_.data());
            stats->hdegree_computations += lazy_batch_.size();
            for (size_t i = 0; i < lazy_batch_.size(); ++i) {
              (*keys)[lazy_batch_[i]] = batch_keys_[i];
              (*lazy)[lazy_batch_[i]] = 0;
            }
          }
        }
        frontier_.clear();
        for (const VertexId v : round_) {
          if ((*keys)[v] <= k) {
            frontier_.push_back(v);
          } else {
            remaining_.push_back(v);
          }
        }
        if (frontier_.empty()) break;
        stats->pops += frontier_.size();
        for (const VertexId v : frontier_) {
          alive->Kill(v);
          assign(v, k);
        }
        // Repair pass: only vertices within distance h of a killed vertex
        // can have lost h-neighbors. Mark them in parallel; the mark
        // classification (see MarkNeighborhoods) says which survivors lost
        // exactly the counted sources — those take the batched form of the
        // sequential unit decrement, O(1) instead of a BFS — and which need
        // a full recomputation, done in one deduplicated batch. Skipped
        // entirely: lazy keys (a lower bound stays a lower bound) and
        // vertices already claimed for this level (their key is <= k for
        // good; the sequential loop's pinned-bucket skip).
        degrees_->MarkNeighborhoods(g, *alive, h, frontier_, marks_.get(),
                                    &marked_lists_);
        recompute_.clear();
        next_round_.clear();
        for (const auto& list : marked_lists_) {
          for (const VertexId u : list) {
            const uint8_t mark =
                marks_[u].exchange(0, std::memory_order_relaxed);
            if (!alive->IsAlive(u)) continue;
            if (lazy != nullptr && (*lazy)[u]) continue;
            if (queued_[u]) continue;
            if ((mark & kMarkNeedsRecompute) == 0) {
              // Every source reached u at distance exactly h: u lost
              // exactly `mark` h-ball members, and its key is exact (it is
              // not lazy), so decrement in place.
              stats->decrement_updates += 1;
              (*keys)[u] -= mark;
              if ((*keys)[u] <= k) {
                queued_[u] = 1;
                next_round_.push_back(u);
              }
              continue;
            }
            recompute_.push_back(u);
          }
        }
        if (!recompute_.empty()) {
          batch_keys_.resize(recompute_.size());
          degrees_->ComputeBatch(g, *alive, h, recompute_,
                                 batch_keys_.data());
          stats->hdegree_computations += recompute_.size();
          for (size_t i = 0; i < recompute_.size(); ++i) {
            const VertexId u = recompute_[i];
            (*keys)[u] = batch_keys_[i];
            if (batch_keys_[i] <= k) {
              queued_[u] = 1;
              next_round_.push_back(u);
            }
          }
        }
        round_.swap(next_round_);
      }
      ++k;
    }
  }

 private:
  void EnsureScratch(VertexId n) REQUIRES(coordinator_);

  ThreadRole coordinator_;
  HDegreeComputer* degrees_;
  VertexId capacity_ GUARDED_BY(coordinator_) = 0;
  // marks_ entries are 0 outside MarkNeighborhoods round-trips (reset from
  // the marked lists, never by an O(n) sweep). The array pointer is
  // coordinator-owned; workers write ELEMENTS through MarkNeighborhoods'
  // atomics.
  std::unique_ptr<std::atomic<uint8_t>[]> marks_ GUARDED_BY(coordinator_);
  // Claimed-for-current-level flags and per-round work lists: touched only
  // between the coordinator's fan-out barriers.
  std::vector<uint8_t> queued_ GUARDED_BY(coordinator_);
  std::vector<std::vector<VertexId>> marked_lists_ GUARDED_BY(coordinator_);
  std::vector<VertexId> remaining_ GUARDED_BY(coordinator_),
      next_remaining_ GUARDED_BY(coordinator_),
      candidates_ GUARDED_BY(coordinator_), round_ GUARDED_BY(coordinator_),
      next_round_ GUARDED_BY(coordinator_),
      frontier_ GUARDED_BY(coordinator_),
      recompute_ GUARDED_BY(coordinator_),
      lazy_batch_ GUARDED_BY(coordinator_);
  std::vector<uint32_t> batch_keys_ GUARDED_BY(coordinator_);
};

}  // namespace hcore

#endif  // HCORE_ENGINE_PARALLEL_PEEL_H_
