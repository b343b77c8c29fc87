// Reusable h-bounded breadth-first search.
//
// This is the inner loop of every (k,h)-core algorithm: computing the
// h-degree of a vertex inside the currently-alive induced subgraph means one
// BFS truncated at depth h that ignores dead vertices. The alive set is a
// VertexMask (see engine/vertex_mask.h), the shared subgraph-view type.
//
// The kernel is level-synchronous: the queue holds one level after the
// other, so the depth is the loop counter and no per-vertex distance array
// exists. Vertices at depth h are only marked and counted (HDegree) or
// recorded (CollectNeighborhood), never enqueued for expansion. The visited
// marks are reused across calls via epoch stamping, so a run does no O(n)
// clearing.
//
// The instance also accumulates the paper's Table-3 cost metric: the total
// number of (possibly repeated) vertices visited across all traversals
// ("computed point-to-point distances"). Every run counts |N(src, h)|,
// whether it only measured the h-degree or collected the neighborhood.
//
// Every h-degree in the library runs sequentially on one of these: the
// engine borrows its caller's instance, so one decomposition's bounds, peel
// and ImproveLB passes all count visits in one place.

#ifndef HCORE_TRAVERSAL_BOUNDED_BFS_H_
#define HCORE_TRAVERSAL_BOUNDED_BFS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "util/check.h"

namespace hcore {

/// The h-neighborhood of a source vertex over an alive set, as one BFS
/// collected it. `order` is the source followed by every reached vertex in
/// BFS order; `ball_end[r]` is |B(src, r)|, the closed ball of radius r
/// (0 <= r <= h), so order[ball_end[d - 1], ball_end[d]) is the level at
/// distance d.
struct Neighborhood {
  std::vector<VertexId> order;
  std::vector<uint32_t> ball_end;

  int h() const { return static_cast<int>(ball_end.size()) - 1; }
  /// |N(src, h)|: the reached vertices, the source excluded.
  uint32_t size() const { return static_cast<uint32_t>(order.size()) - 1; }
  /// |B(src, r)|, the source included. O(1).
  uint32_t BallSize(int r) const { return ball_end[r]; }

  /// Calls `fn(u, d)` for every reached vertex u, in BFS order, with its
  /// distance d from the source.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int d = 1; d <= h(); ++d) {
      for (uint32_t i = ball_end[d - 1]; i < ball_end[d]; ++i) fn(order[i], d);
    }
  }
};

/// Scratch object for depth-bounded BFS over an alive-masked subgraph.
/// Not thread-safe; use one instance per thread.
class BoundedBfs {
 public:
  /// `n` presizes the scratch. BoundedBfs(0) allocates nothing and Run()
  /// grows it on first use, so holders that never traverse — the h = 1
  /// engine fast path walks adjacency directly — pay nothing.
  explicit BoundedBfs(VertexId n = 0) { EnsureCapacity(n); }

  /// Process-wide count of scratch growths (every EnsureCapacity that had
  /// to allocate), for tests asserting that h = 1 fast paths never allocate.
  /// lint:allow(test-only-api): the count must be taken where the scratch
  /// grows, so no test-side reference can stand in for it.
  static uint64_t total_scratch_allocations();

  /// BFS from `src` through alive vertices, truncated at depth `h`. Calls
  /// `visit(u, dist)` for every reached vertex u != src (1 <= dist <= h) in
  /// BFS order. `src` itself is expanded regardless of its alive flag
  /// (peeling enumerates the neighborhood of a vertex that is about to be
  /// removed). Returns the number of vertices visited.
  ///
  /// `alive` is any subgraph view exposing `size()` and `IsAlive(v)` — a
  /// VertexMask, or an ad-hoc predicate view like the per-level core masks
  /// of the localized delete cascade (core/incremental.cc).
  template <typename Mask, typename Visitor>
  uint32_t Run(const Graph& g, const Mask& alive, VertexId src, int h,
               Visitor&& visit) {
    return Sweep</*kKeepLast=*/false>(g, alive, src, h, &queue_, nullptr,
                                      visit);
  }

  /// h-degree of `src` in the alive-induced subgraph: |N(src, h)|.
  template <typename Mask>
  uint32_t HDegree(const Graph& g, const Mask& alive, VertexId src, int h) {
    return Run(g, alive, src, h, [](VertexId, int) {});
  }

  /// Collects the h-neighborhood of `src` and its ball boundaries into
  /// `out` (overwritten). Returns |N(src, h)|.
  template <typename Mask>
  uint32_t CollectNeighborhood(const Graph& g, const Mask& alive,
                               VertexId src, int h, Neighborhood* out) {
    auto ignore = [](VertexId, int) {};
    return Sweep</*kKeepLast=*/true>(g, alive, src, h, &out->order,
                                     &out->ball_end, ignore);
  }

  /// Total vertices visited across all Run() calls since ResetStats().
  uint64_t total_visited() const { return total_visited_; }
  void ResetStats() { total_visited_ = 0; }

  /// Test-only: fast-forwards the epoch stamp so suites can exercise the
  /// wraparound path without ~4B traversals.
  /// lint:allow(test-only-api): the stamp is private state; only this hook
  /// reaches the wraparound in a test-sized run.
  void set_stamp_for_testing(uint32_t stamp) { stamp_ = stamp; }

 private:
  /// Grows internal buffers to accommodate `n` vertices.
  void EnsureCapacity(VertexId n) {
    if (mark_.size() < n) Grow(n);
  }

  /// The kernel. `order` receives the source and levels 1 .. h - 1 (and
  /// level h when kKeepLast); `ball_end`, when kKeepLast, the h + 1 ball
  /// sizes. Levels below h are expanded by one loop; the last level has its
  /// own loop that only marks and counts or records (a per-edge "last
  /// level" test inside one loop measured slower at h = 3).
  template <bool kKeepLast, typename Mask, typename Visitor>
  uint32_t Sweep(const Graph& g, const Mask& alive, VertexId src, int h,
                 std::vector<VertexId>* order,
                 std::vector<uint32_t>* ball_end, Visitor& visit) {
    HCORE_DCHECK(src < g.num_vertices());
    HCORE_DCHECK(alive.size() == g.num_vertices());
    EnsureCapacity(g.num_vertices());
    NextStamp();
    mark_[src] = stamp_;
    std::vector<VertexId>& q = *order;
    q.clear();
    q.push_back(src);
    if constexpr (kKeepLast) ball_end->assign(1, 1);
    size_t begin = 0;
    for (int d = 1; d < h; ++d) {
      const size_t end = q.size();
      for (size_t i = begin; i < end; ++i) {
        for (VertexId u : g.neighbors(q[i])) {
          if (mark_[u] == stamp_ || !alive.IsAlive(u)) continue;
          mark_[u] = stamp_;
          q.push_back(u);
          visit(u, d);
        }
      }
      if constexpr (kKeepLast) {
        ball_end->push_back(static_cast<uint32_t>(q.size()));
      }
      begin = end;
    }
    uint32_t last = 0;  // depth-h vertices not kept in `q`
    if (h >= 1) {
      const size_t end = q.size();
      for (size_t i = begin; i < end; ++i) {
        for (VertexId u : g.neighbors(q[i])) {
          if (mark_[u] == stamp_ || !alive.IsAlive(u)) continue;
          mark_[u] = stamp_;
          if constexpr (kKeepLast) {
            q.push_back(u);
          } else {
            ++last;
          }
          visit(u, h);
        }
      }
      if constexpr (kKeepLast) {
        ball_end->push_back(static_cast<uint32_t>(q.size()));
      }
    }
    const uint32_t count = static_cast<uint32_t>(q.size() - 1) + last;
    total_visited_ += count;
    return count;
  }

  void Grow(VertexId n);

  void NextStamp() {
    if (++stamp_ == 0) {
      // Stamp wraparound: stale marks could collide with re-used stamp
      // values, so pay one O(n) refill and restart.
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
  }

  std::vector<uint32_t> mark_;  // mark_[v] == stamp_ <=> visited this run.
  std::vector<VertexId> queue_;
  uint32_t stamp_ = 0;
  uint64_t total_visited_ = 0;
};

/// h-degrees of all alive vertices into `out`, resized to n (dead entries
/// keep their value), one sequential BFS each on `bfs`.
inline void ComputeAllAlive(const Graph& g, const VertexMask& alive, int h,
                            BoundedBfs* bfs, std::vector<uint32_t>* out) {
  out->resize(g.num_vertices());
  alive.ForEachAlive(
      [&](VertexId v) { (*out)[v] = bfs->HDegree(g, alive, v, h); });
}

}  // namespace hcore

#endif  // HCORE_TRAVERSAL_BOUNDED_BFS_H_
