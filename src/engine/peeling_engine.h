// Generic bucket-ordered peeling driver — the single peel loop behind the
// classic core decomposition, all three (k,h)-core algorithms (h-BZ, h-LB,
// h-LB+UB), the power-graph upper bound, greedy densest-subgraph peeling,
// and the distance-h coloring order.
//
// The engine owns the shared mechanics that used to be re-implemented at
// every call site:
//
//   * the BucketQueue with the monotone clamp discipline
//     (key(u) = max(deg(u), current bucket)),
//   * the alive mask transition (enumerate the h-neighborhood of the popped
//     vertex, then kill it) — one BFS per removal, which a lazy policy's
//     pop-time Materialize() already ran when it peels the vertex at once,
//   * lazy-decrement vs batch-recompute bookkeeping for affected neighbors,
//     with every BFS run on one BoundedBfs the caller lends, so its visit
//     counter covers the whole pass,
//   * the paper's Table-3 cost counters (h-degree recomputations and O(1)
//     decrement updates).
//
// What varies between algorithms is expressed as a Policy (a set of inlined
// hooks; see PeelPolicyBase): what happens when a vertex is popped (assign a
// core index, lazily materialize an h-degree, track a density), how each
// surviving neighbor reacts (exact unit decrement at distance h, full
// recompute below it, skip), and what runs after a removal.

#ifndef HCORE_ENGINE_PEELING_ENGINE_H_
#define HCORE_ENGINE_PEELING_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/bounded_bfs.h"
#include "util/bucket_queue.h"
#include "util/check.h"

namespace hcore {

/// Cost counters for one peeling run (feeds the paper's Table 3).
struct PeelingStats {
  /// Full h-degree recomputations (each one h-bounded BFS).
  uint64_t hdegree_computations = 0;
  /// O(1) decrements taken instead of a BFS: the engine's unit decrements
  /// plus any a policy applies itself (h-LB's ball-size decrements).
  uint64_t decrement_updates = 0;
  /// Vertices popped from the queue (including lazy re-queues).
  uint64_t pops = 0;
};

/// Reaction of a policy to a surviving neighbor of a removed vertex.
enum class PeelAction : uint8_t {
  kSkip,       ///< The engine leaves the key (the policy may move it).
  kDecrement,  ///< Exact unit decrement (neighbor at full distance h).
  kRecompute,  ///< Queue a full h-degree recomputation (batched).
};

/// Default policy hooks; custom policies inherit and override what they need.
struct PeelPolicyBase {
  /// When true, neighbors already sitting in the current bucket are skipped:
  /// their key is pinned at k (keys are clamped to >= k and degrees only
  /// shrink), so no update can have an observable effect. Policies that read
  /// exact degrees off the key array (e.g. density tracking) disable this.
  static constexpr bool kSkipPinned = true;

  /// Called for every popped vertex. Return true to peel `v` now; return
  /// false to skip the removal (the policy has re-queued `v`, e.g. after
  /// lazily replacing a lower bound with the true h-degree). A policy that
  /// measures v's h-degree here through PeelingEngine::Materialize and
  /// returns true peels v with that BFS's neighborhood.
  bool OnPop(VertexId /*v*/, uint32_t /*k*/) { return true; }

  /// Classifies the update for alive, still-queued neighbor `u` at BFS
  /// distance `dist` from the removed vertex.
  PeelAction OnNeighbor(VertexId /*u*/, int /*dist*/, uint32_t /*k*/) {
    return PeelAction::kRecompute;
  }

  /// Observes every key (degree) change the engine applies.
  void OnKeyUpdate(VertexId /*u*/, uint32_t /*old_key*/,
                   uint32_t /*new_key*/) {}

  /// Called after `v` has been removed and all neighbor updates applied.
  void OnPeeled(VertexId /*v*/, uint32_t /*k*/) {}
};

/// One peeling pass over the alive subgraph of a graph. The engine drives
/// the queue and the mask; the caller seeds keys and supplies a policy.
class PeelingEngine {
 public:
  /// `alive` and `bfs` are borrowed, not owned; `max_key` bounds every
  /// key ever inserted (h-degrees are < n, so n is always safe).
  PeelingEngine(const Graph& g, int h, VertexMask* alive, BoundedBfs* bfs,
                uint32_t max_key)
      : g_(g),
        h_(h),
        alive_(alive),
        bfs_(bfs),
        keys_(g.num_vertices(), 0),
        queue_(g.num_vertices(), max_key) {
    HCORE_CHECK(alive_->size() == g.num_vertices());
  }

  int h() const { return h_; }
  VertexMask& alive() { return *alive_; }
  PeelingStats& stats() { return stats_; }

  /// Per-vertex keys (true degrees, not bucket-clamped). Policies may read
  /// and write entries directly, e.g. when lazily materializing a degree.
  std::vector<uint32_t>& keys() { return keys_; }

  /// |B(w, r)|: the closed ball of radius `r` (0 <= r <= h) around the
  /// vertex `w` being removed, `w` included, over the alive set just before
  /// its removal. Valid only inside OnNeighbor. O(1): the BFS that
  /// collected w's neighborhood recorded its level boundaries.
  uint32_t BallSize(int r) const { return nbhd_.BallSize(r); }

  /// Lazy policies call this from OnPop(v, k) for the popped `v`: collects
  /// v's h-neighborhood over the current alive set (one BFS, counted as an
  /// h-degree computation) and returns |N(v, h)|. If OnPop then returns
  /// true, the removal reads this neighborhood instead of running a second
  /// BFS over the same alive set.
  uint32_t Materialize(VertexId v) {
    HCORE_DCHECK(v == popped_);
    Collect(v);
    materialized_ = true;
    ++stats_.hdegree_computations;
    return nbhd_.size();
  }

  /// Inserts `v` with key `key` (and records it as v's degree).
  void Seed(VertexId v, uint32_t key) {
    keys_[v] = key;
    queue_.Insert(v, key);
  }

  /// Inserts or relocates `v` at `key`.
  void SeedOrMove(VertexId v, uint32_t key) {
    keys_[v] = key;
    if (queue_.Contains(v)) {
      queue_.Move(v, key);
    } else {
      queue_.Insert(v, key);
    }
  }

  /// Computes h-degrees of all alive vertices and seeds the queue with them.
  void SeedAliveWithHDegrees() {
    ComputeAllAlive(g_, *alive_, h_, bfs_, &keys_);
    stats_.hdegree_computations += alive_->num_alive();
    alive_->ForEachAlive([this](VertexId v) { queue_.Insert(v, keys_[v]); });
  }

  /// Re-inserts a just-popped vertex with a materialized degree, clamped to
  /// the current bucket (lazy lower-bound policies call this from OnPop).
  void Requeue(VertexId v, uint32_t key, uint32_t k) {
    keys_[v] = key;
    queue_.Insert(v, std::max(key, k));
  }

  /// Localized region peel (core/incremental.h): seeds the bucket queue
  /// from the current mask instead of the full vertex set. `pinned`
  /// vertices enter at the fixed key `pinned_keys[v]` — their scheduled
  /// removal replays the surrounding true peel, so the policy must kSkip
  /// them as neighbors and never reassign them on pop. `region` vertices
  /// enter at their h-degree over the current alive mask. The mask must
  /// hold exactly region ∪ pinned alive; the sweep then runs over every
  /// bucket.
  template <typename Policy>
  void PeelRegion(std::span<const VertexId> region,
                  std::span<const VertexId> pinned,
                  const std::vector<uint32_t>& pinned_keys, Policy&& policy) {
    for (const VertexId b : pinned) Seed(b, pinned_keys[b]);
    for (const VertexId v : region) {
      Seed(v, bfs_->HDegree(g_, *alive_, v, h_));
    }
    stats_.hdegree_computations += region.size();
    Peel(0, queue_.max_key(), policy);
  }

  /// Runs the peel over buckets [max(0, k_min - 1), min(k_max, max key)].
  /// Vertices popped below k_min are peeled but belong to earlier levels;
  /// the policy decides what (not) to assign (partitioned h-LB+UB uses
  /// this window to re-peel resurrected vertices without re-assigning).
  template <typename Policy>
  void Peel(uint32_t k_min, uint32_t k_max, Policy&& policy) {
    const uint32_t k_start = (k_min == 0) ? 0 : k_min - 1;
    const uint32_t k_stop = std::min(k_max, queue_.max_key());
    for (uint32_t k = k_start; k <= k_stop; ++k) {
      while (!queue_.BucketEmpty(k)) {
        const VertexId v = queue_.PopFront(k);
        ++stats_.pops;
        popped_ = v;
        materialized_ = false;
        const bool remove = policy.OnPop(v, k);
        popped_ = kNoVertex;
        if (!remove) continue;
        if (!materialized_) Collect(v);
        alive_->Kill(v);
        batch_.clear();
        nbhd_.ForEach([&](VertexId u, int d) {
          if (!alive_->IsAlive(u) || !queue_.Contains(u)) return;
          if (std::remove_reference_t<Policy>::kSkipPinned &&
              queue_.KeyOf(u) == k) {
            return;  // pinned at the current bucket; no observable effect
          }
          switch (policy.OnNeighbor(u, d, k)) {
            case PeelAction::kSkip:
              break;
            case PeelAction::kDecrement: {
              const uint32_t old_key = keys_[u];
              if (keys_[u] > 0) --keys_[u];
              ++stats_.decrement_updates;
              policy.OnKeyUpdate(u, old_key, keys_[u]);
              queue_.Move(u, std::max(keys_[u], k));
              break;
            }
            case PeelAction::kRecompute:
              batch_.push_back(u);
              break;
          }
        });
        if (!batch_.empty()) RecomputeBatch(k, policy);
        policy.OnPeeled(v, k);
      }
    }
  }

 private:
  static constexpr VertexId kNoVertex = ~VertexId{0};

  /// Collects v's h-neighborhood over the current alive set into nbhd_.
  void Collect(VertexId v) {
    if (h_ == 1) {
      // h = 1 fast path: the h-neighborhood is the direct adjacency list;
      // skip the stamped-BFS scratch so the classic decomposition keeps its
      // linear-time constant factor.
      nbhd_.order.assign(1, v);
      for (VertexId u : g_.neighbors(v)) {
        if (alive_->IsAlive(u)) nbhd_.order.push_back(u);
      }
      nbhd_.ball_end.assign(
          {1, static_cast<uint32_t>(nbhd_.order.size())});
    } else {
      bfs_->CollectNeighborhood(g_, *alive_, v, h_, &nbhd_);
    }
  }

  /// Recomputes h-degrees for the collected batch, after every neighbor
  /// has been classified, and re-buckets each vertex at max(h-degree, k).
  template <typename Policy>
  void RecomputeBatch(uint32_t k, Policy& policy) {
    stats_.hdegree_computations += batch_.size();
    for (const VertexId u : batch_) {
      const uint32_t old_key = keys_[u];
      keys_[u] = bfs_->HDegree(g_, *alive_, u, h_);
      policy.OnKeyUpdate(u, old_key, keys_[u]);
      queue_.Move(u, std::max(keys_[u], k));
    }
  }

  const Graph& g_;
  const int h_;
  VertexMask* alive_;
  BoundedBfs* bfs_;
  std::vector<uint32_t> keys_;
  BucketQueue queue_;
  PeelingStats stats_;
  // The vertex whose OnPop is running, and whether it materialized nbhd_.
  VertexId popped_ = kNoVertex;
  bool materialized_ = false;
  // Scratch buffers reused across pops.
  Neighborhood nbhd_;
  std::vector<VertexId> batch_;
};

}  // namespace hcore

#endif  // HCORE_ENGINE_PEELING_ENGINE_H_
