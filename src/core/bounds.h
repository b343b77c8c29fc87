// Lower and upper bounds on (k,h)-core indexes (paper §4.2, §4.4, §4.5).
//
//   LB1(v) = deg^{⌊h/2⌋}(v)                                  (Observation 1)
//   LB2(v) = max{LB1(u) : d(u,v) ≤ ⌈h/2⌉} ∪ {LB1(v)}         (Observation 2)
//   UB(v)  = classic core index of v in the (implicit) power graph G^h,
//            computed by peeling with unit decrements only    (Algorithm 5)
//   LB3    = max(LB2, min h-degree within a candidate set)    (Algorithm 6,
//            Property 3), together with optimistic cleaning of the set.
//
// LB2 needs no BFS: the max over a closed r-ball is r rounds of "max over
// the closed 1-neighborhood". The other functions run their BFS on the
// caller's BoundedBfs, so the caller keeps one visit count; the UB peel
// itself is a unit-decrement policy over the shared PeelingEngine.

#ifndef HCORE_CORE_BOUNDS_H_
#define HCORE_CORE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/bounded_bfs.h"

namespace hcore {

/// LB1(v) = deg^{⌊h/2⌋}(v) over the full graph. Requires h >= 2 (for h = 1
/// the radius would be 0; callers use the classic fast path instead).
std::vector<uint32_t> ComputeLB1(const Graph& g, int h, BoundedBfs* bfs);

/// LB2 from a precomputed LB1: max of LB1 over the closed ⌈h/2⌉-neighborhood,
/// computed as ⌈h/2⌉ sweeps of max over each closed 1-neighborhood.
std::vector<uint32_t> ComputeLB2(const Graph& g, int h,
                                 const std::vector<uint32_t>& lb1);

/// Algorithm 5: upper bound via implicit power-graph peeling. `hdeg` must be
/// the h-degrees of all vertices in the full graph. Each removal performs
/// one h-BFS to enumerate the removed vertex's neighborhood and decrements
/// each alive neighbor's optimistic degree by exactly 1.
///
/// Note: because the enumeration uses *induced* h-neighborhoods of the
/// surviving subgraph, the result can be slightly looser than the classic
/// core index of a materialized G^h — but it is always a sound upper bound
/// on the (k,h)-core index, and the optimistic degree of a vertex always
/// dominates its count of alive full-distance-h neighbors (every removed
/// induced neighbor is also a full-distance neighbor). The latter property
/// is what makes the peel order usable for distance-h coloring.
///
/// If `peel_order` is non-null it receives the removal order (used by
/// DistanceHColoring as a smallest-last ordering of the implicit G^h).
std::vector<uint32_t> ComputePowerGraphUpperBound(
    const Graph& g, int h, const std::vector<uint32_t>& hdeg,
    BoundedBfs* bfs, std::vector<VertexId>* peel_order = nullptr);

/// Output of ImproveLB (Algorithm 6).
struct ImproveLbResult {
  /// LB3 lower bound for surviving vertices (max of lb2 and the minimum
  /// h-degree of the original candidate set — Property 3).
  std::vector<uint32_t> lb3;
  /// Number of vertices removed by the cleaning cascade.
  uint32_t removed = 0;
  /// h-degree BFS runs made: one per unsettled candidate.
  uint64_t computed = 0;
};

/// Algorithm 6: cleans the candidate set (the alive vertices of `alive`) by
/// cascade-removing every vertex whose optimistic h-degree drops below
/// `k_min`, and computes LB3. `alive` is updated in place; removed vertices
/// are killed in the mask.
///
/// `settled[v]` (one entry per vertex) marks candidates whose core index is
/// already known to be at least `settled_floor` >= k_min, e.g. vertices
/// assigned by a higher h-LB+UB partition. Only unsettled candidates get an
/// h-degree BFS. A settled vertex's h-degree in the candidate set is at
/// least its core index (Observation 3), so it is never cleaned, the
/// cascade never decrements it, and it enters LB3's minimum as
/// `settled_floor`. The removed set is the one the unmasked call removes;
/// LB3 is at most the unmasked LB3.
ImproveLbResult ImproveLB(const Graph& g, int h, uint32_t k_min,
                          VertexMask* alive, const std::vector<uint32_t>& lb2,
                          const std::vector<uint8_t>& settled,
                          uint32_t settled_floor, BoundedBfs* bfs);

}  // namespace hcore

#endif  // HCORE_CORE_BOUNDS_H_
