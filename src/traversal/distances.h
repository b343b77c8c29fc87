// Unbounded shortest-path distance helpers: single-source BFS, pairwise
// distance, diameter (exact and heuristic), induced-subgraph diameter check
// (the h-club predicate).

#ifndef HCORE_TRAVERSAL_DISTANCES_H_
#define HCORE_TRAVERSAL_DISTANCES_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace hcore {

/// Distance value for unreachable vertices.
inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// Single-source BFS distances (kUnreachable where disconnected).
std::vector<uint32_t> BfsDistances(const Graph& g, VertexId src);

/// BFS distances within the alive-masked subgraph. `src` must be alive.
std::vector<uint32_t> BfsDistances(const Graph& g, const VertexMask& alive,
                                   VertexId src);

/// Shortest-path distance between two vertices (kUnreachable if none).
uint32_t Distance(const Graph& g, VertexId u, VertexId v);

/// Exact diameter of the largest connected component via all-sources BFS.
/// Cost O(n·m); intended for small/medium graphs.
uint32_t ExactDiameter(const Graph& g);

/// Lower-bound estimate of the diameter via `sweeps` double-sweep probes
/// from random sources. Cheap and usually tight on real-world graphs.
uint32_t EstimateDiameter(const Graph& g, int sweeps, Rng* rng);

}  // namespace hcore

#endif  // HCORE_TRAVERSAL_DISTANCES_H_
