// Reusable h-bounded breadth-first search.
//
// This is the inner loop of every (k,h)-core algorithm: computing the
// h-degree of a vertex inside the currently-alive induced subgraph means one
// BFS truncated at depth h that ignores dead vertices. The alive set is a
// VertexMask (see engine/vertex_mask.h), the shared subgraph-view type. The
// scratch state (visited marks, distances, queue) is reused across calls via
// epoch stamping, so a Run() does no O(n) clearing.
//
// The instance also accumulates the paper's Table-3 cost metric: the total
// number of (possibly repeated) vertices visited across all traversals
// ("computed point-to-point distances").
//
// Every h-degree in the library runs sequentially on one of these: the
// engine borrows its caller's instance, so one decomposition's bounds, peel
// and ImproveLB passes all count visits in one place.

#ifndef HCORE_TRAVERSAL_BOUNDED_BFS_H_
#define HCORE_TRAVERSAL_BOUNDED_BFS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "util/check.h"

namespace hcore {

/// Scratch object for depth-bounded BFS over an alive-masked subgraph.
/// Not thread-safe; use one instance per thread.
class BoundedBfs {
 public:
  /// `n` presizes the scratch. BoundedBfs(0) allocates nothing and Run()
  /// grows it on first use, so holders that never traverse — the h = 1
  /// engine fast path walks adjacency directly — pay nothing.
  explicit BoundedBfs(VertexId n = 0) { EnsureCapacity(n); }

  /// Grows internal buffers to accommodate `n` vertices.
  void EnsureCapacity(VertexId n) {
    if (mark_.size() < n) Grow(n);
  }

  /// Process-wide count of scratch growths (every EnsureCapacity that had
  /// to allocate), for tests asserting that h = 1 fast paths never allocate.
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
    HCORE_DCHECK(src < g.num_vertices());
    HCORE_DCHECK(alive.size() == g.num_vertices());
    EnsureCapacity(g.num_vertices());
    NextStamp();
    mark_[src] = stamp_;
    dist_[src] = 0;
    queue_.clear();
    queue_.push_back(src);
    uint32_t count = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId v = queue_[head];
      const int d = dist_[v];
      if (d >= h) break;  // BFS order: all later entries are at depth >= d.
      for (VertexId u : g.neighbors(v)) {
        if (mark_[u] == stamp_ || !alive.IsAlive(u)) continue;
        mark_[u] = stamp_;
        dist_[u] = d + 1;
        queue_.push_back(u);
        visit(u, d + 1);
        ++count;
      }
    }
    total_visited_ += count;
    return count;
  }

  /// h-degree of `src` in the alive-induced subgraph: |N(src, h)|.
  template <typename Mask>
  uint32_t HDegree(const Graph& g, const Mask& alive, VertexId src, int h) {
    return Run(g, alive, src, h, [](VertexId, int) {});
  }

  /// Collects the h-neighborhood of `src` with distances into `out`
  /// (cleared first), in BFS order. Returns out->size().
  uint32_t CollectNeighborhood(const Graph& g, const VertexMask& alive,
                               VertexId src, int h,
                               std::vector<std::pair<VertexId, int>>* out) {
    out->clear();
    return Run(g, alive, src, h,
               [out](VertexId u, int d) { out->emplace_back(u, d); });
  }

  /// Total vertices visited across all Run() calls since ResetStats().
  uint64_t total_visited() const { return total_visited_; }
  void ResetStats() { total_visited_ = 0; }

  /// Test-only: fast-forwards the epoch stamp so suites can exercise the
  /// wraparound path without ~4B traversals.
  void set_stamp_for_testing(uint32_t stamp) { stamp_ = stamp; }

 private:
  void Grow(VertexId n);

  void NextStamp() {
    if (++stamp_ == 0) {
      // Stamp wraparound: stale marks could collide with re-used stamp
      // values. Clear both scratch arrays — refilling only mark_ would keep
      // stale dist_ entries alive next to freshly zeroed marks, a trap for
      // any future reader that consults dist_ without checking mark_ first.
      std::fill(mark_.begin(), mark_.end(), 0);
      std::fill(dist_.begin(), dist_.end(), 0);
      stamp_ = 1;
    }
  }

  std::vector<uint32_t> mark_;  // mark_[v] == stamp_ <=> visited this run.
  std::vector<int> dist_;
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
