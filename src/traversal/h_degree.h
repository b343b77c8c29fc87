// Sequential and multi-threaded h-degree computation (paper §4.6).
//
// The paper parallelizes two blocks: the initial h-degree pass over all
// vertices, and the recomputation of h-degrees across the h-neighborhood of
// each removed vertex, assigning vertices to threads dynamically.
// HDegreeComputer owns one BoundedBfs scratch per worker plus a shared
// thread pool, and exposes batch APIs that implement exactly that scheme.
// Alive subsets are expressed as VertexMask views (engine/vertex_mask.h).

#ifndef HCORE_TRAVERSAL_H_DEGREE_H_
#define HCORE_TRAVERSAL_H_DEGREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/bounded_bfs.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hcore {

/// Computes h-degrees over alive-masked subgraphs, optionally in parallel.
///
/// The per-worker BoundedBfs scratch (two O(n) arrays each) is allocated
/// lazily, on the first traversal a worker actually runs: callers that only
/// construct a computer — the classic h = 1 decomposition, whose engine
/// fast path walks adjacency directly — pay nothing.
///
/// Ownership contract (machine-checked): ONE coordinator thread drives the
/// computer at a time. The batch APIs fan work out on the internal pool but
/// materialize and hand out scratch from the coordinator, and every
/// traversal/stats method REQUIRES the `coordinator()` role — callers claim
/// it with `computer.coordinator().Assume()` at the point where their
/// protocol (a single-threaded driver such as a peel loop or the index's
/// elected writer) makes them the sole driver.
class HDegreeComputer {
 public:
  /// `num_threads` <= 1 selects the sequential path (no pool is created).
  /// `n` only sizes scratch when it is eventually materialized.
  HDegreeComputer(VertexId n, int num_threads);

  /// The single-coordinator capability (see the class comment).
  const ThreadRole& coordinator() const RETURN_CAPABILITY(coordinator_) {
    return coordinator_;
  }

  int num_threads() const { return num_threads_; }

  /// Raises the vertex capacity used to size lazily-created scratch.
  /// Existing scratch grows on its next traversal (BoundedBfs::Run ensures
  /// capacity per call); this only keeps future allocations right-sized.
  void EnsureCapacity(VertexId n) REQUIRES(coordinator_) {
    capacity_ = std::max(capacity_, n);
  }

  /// Process-wide count of BoundedBfs scratch materializations, for tests
  /// and telemetry asserting that h = 1 fast paths never allocate scratch.
  static uint64_t total_scratch_allocations();

  /// h-degree of one vertex (runs on the calling thread).
  uint32_t Compute(const Graph& g, const VertexMask& alive, VertexId v, int h)
      REQUIRES(coordinator_);

  /// h-degrees for every vertex in `batch`; out[i] receives the h-degree of
  /// batch[i]. Parallel when the computer has threads and the batch is
  /// large enough to amortize dispatch.
  void ComputeBatch(const Graph& g, const VertexMask& alive, int h,
                    std::span<const VertexId> batch, uint32_t* out)
      REQUIRES(coordinator_);

  /// h-degrees for all alive vertices into out (size n; dead entries are
  /// left untouched).
  void ComputeAllAlive(const Graph& g, const VertexMask& alive, int h,
                       std::vector<uint32_t>* out) REQUIRES(coordinator_);

  /// Enumerates the h-neighborhood of `v` with distances (sequential).
  uint32_t CollectNeighborhood(const Graph& g, const VertexMask& alive,
                               VertexId v, int h,
                               std::vector<std::pair<VertexId, int>>* out)
      REQUIRES(coordinator_);

  /// Total vertices visited by all BFS runs (the paper's Table-3 "visits").
  uint64_t total_visited() const REQUIRES(coordinator_);
  void ResetStats() REQUIRES(coordinator_);

 private:
  /// Materializes (on the calling thread) and returns worker `t`'s scratch.
  BoundedBfs& Scratch(int t) REQUIRES(coordinator_);

  ThreadRole coordinator_;
  VertexId capacity_ GUARDED_BY(coordinator_);
  int num_threads_;
  // One per worker, lazy. Materialized by the coordinator; during a batch,
  // slot t is lent to exactly one pool worker via a raw pointer until the
  // dispatch-side Wait() barrier.
  std::vector<std::unique_ptr<BoundedBfs>> scratch_ GUARDED_BY(coordinator_);
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hcore

#endif  // HCORE_TRAVERSAL_H_DEGREE_H_
