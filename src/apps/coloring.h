// Distance-h graph coloring (paper §5.1, Theorem 1).
//
// A distance-h coloring assigns colors so that any two same-colored vertices
// are more than h hops apart in G. Finding the minimum number of colors
// (the distance-h chromatic number χ_h) is NP-hard for h >= 2 [McCormick
// 1983].
//
// Theorem 1 claims χ_h(G) <= 1 + Ĉ_h(G) via a greedy coloring in the
// reverse order of the (k,h)-core peeling. Implementing that construction
// literally (kHCorePeel below) revealed a subtlety: the peel guarantees few
// *induced-subgraph* h-neighbors at removal time, but coloring conflicts are
// measured with *full-graph* distances, which can exceed that count — on
// small sparse random graphs the literal greedy occasionally needs
// 1 + Ĉ_h(G) + 1 colors (coloring_test allows kHCorePeel that one extra
// color over its corpus). The default order
// (kUpperBoundPeel) therefore colors in the reverse removal order of
// Algorithm 5's implicit power-graph peeling, whose optimistic degrees
// *provably* dominate the full-distance conflict count, giving the
// guarantee χ_h(G) <= 1 + max_v UB(v).

#ifndef HCORE_APPS_COLORING_H_
#define HCORE_APPS_COLORING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Vertex ordering used by the greedy distance-h coloring.
enum class ColoringOrder {
  /// Reverse Algorithm-5 (implicit G^h) peel order. Guarantees
  /// num_colors <= 1 + max_v UB(v). Default.
  kUpperBoundPeel,
  /// Reverse (k,h)-core peel order — the literal Theorem-1 construction.
  /// Usually within 1 + Ĉ_h(G) but not guaranteed (see header comment).
  kHCorePeel,
};

/// Result of a greedy distance-h coloring.
struct ColoringResult {
  /// color[v] in [0, num_colors).
  std::vector<uint32_t> color;
  uint32_t num_colors = 0;
  /// The order-specific guarantee: 1 + max UB (kUpperBoundPeel) or
  /// 1 + Ĉ_h (kHCorePeel, heuristic). num_colors <= bound always holds for
  /// kUpperBoundPeel.
  uint32_t bound = 0;
};

/// Greedy distance-h coloring. Colors are conflict-checked against
/// full-graph distances via h-bounded BFS, so the result is always a valid
/// distance-h coloring.
ColoringResult DistanceHColoring(const Graph& g, int h,
                                 ColoringOrder order = ColoringOrder::kUpperBoundPeel);

/// Smallest-h-degree-last peel order of g (vertices in removal order). The
/// reverse is the distance-generalized degeneracy ordering used by
/// ColoringOrder::kHCorePeel.
std::vector<VertexId> HPeelOrder(const Graph& g, int h);

}  // namespace hcore

#endif  // HCORE_APPS_COLORING_H_
