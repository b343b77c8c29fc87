// Vertex ordering for cache-locality relabeling.
//
// Peeling spends most of its time in h-bounded BFS over the CSR arrays; how
// well that walk uses the cache depends almost entirely on how vertex ids
// map to memory. BfsOrder produces the permutation (new-id -> old-id) that
// KhCoreDecomposition applies via Graph::Relabeled() before peeling when
// VertexOrdering::kAuto finds the ids scrambled (MeanNeighborGapFraction):
// breadth-first discovery order from the highest-degree vertex of each
// component, so neighborhoods become index-local and a BFS frontier touches
// few cache lines.

#ifndef HCORE_GRAPH_ORDERING_H_
#define HCORE_GRAPH_ORDERING_H_

#include <span>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Permutation (new-id -> old-id) in BFS discovery order, seeded from the
/// highest-degree vertex of each connected component (deterministic; degree
/// ties go to the lower id).
std::vector<VertexId> BfsOrder(const Graph& g);

/// Inverse of a permutation: out[perm[i]] = i.
std::vector<VertexId> InvertPermutation(std::span<const VertexId> perm);

/// Gathers a per-vertex vector into permuted order: out[i] = values[perm[i]].
/// Used to carry bounds INTO a Graph::Relabeled copy (perm = new-id ->
/// old-id).
std::vector<uint32_t> GatherByPermutation(std::span<const uint32_t> values,
                                          std::span<const VertexId> perm);

/// Scatters a per-vertex vector back: out[perm[i]] = values[i]. Used to map
/// results computed on a relabeled copy back to the caller's ids.
std::vector<uint32_t> ScatterByPermutation(std::span<const uint32_t> values,
                                           std::span<const VertexId> perm);

/// Normalization floor for per-component gap scoring: id gaps inside a
/// window of this many vertices are cache-resident regardless of order, so
/// components smaller than it can never look scrambled on their own.
inline constexpr VertexId kGapLocalityWindow = 4096;

/// Locality statistic backing VertexOrdering::kAuto: the mean of
/// min(1, |v - u| / max(size(component(v)), kGapLocalityWindow)) over all
/// edges of ~`samples` evenly-strided vertices.
///
/// Gaps are scored PER COMPONENT (one O(n + m) component-labeling pass —
/// same order as the relabel the statistic gates): normalizing by the whole
/// vertex count misfires on disconnected graphs, where a component spanning
/// a fraction of the id space hides its internal scrambling behind the
/// global n (e.g. 8 contiguous blocks each internally shuffled score ~0.04
/// globally but thrash every BFS; per component they score ~1/3). For a
/// connected graph with n >= kGapLocalityWindow the value matches the
/// historical global statistic: uniformly random ids score ~1/3,
/// BFS/crawl/generator orders well under 0.1 on sparse graphs.
/// Deterministic.
double MeanNeighborGapFraction(const Graph& g, VertexId samples = 1024);

/// VertexOrdering::kAuto relabels a graph iff its MeanNeighborGapFraction
/// exceeds this cut: locality-preserving orders score well under 0.1,
/// scrambled ids ~1/3 (measurements at VertexOrdering in core/kh_core.h).
inline constexpr double kScrambledGapFraction = 0.15;

}  // namespace hcore

#endif  // HCORE_GRAPH_ORDERING_H_
