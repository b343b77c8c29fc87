// Distance-h graph coloring (paper §5.1, Theorem 1).
//
// A distance-h coloring assigns colors so that any two same-colored vertices
// are more than h hops apart in G. Finding the minimum number of colors
// (the distance-h chromatic number χ_h) is NP-hard for h >= 2 [McCormick
// 1983].
//
// Theorem 1 bounds χ_h(G) by 1 + Ĉ_h(G) through a greedy coloring in the
// reverse order of the (k,h)-core peeling. DistanceHColoring instead colors
// in the reverse removal order of Algorithm 5's implicit power-graph peeling,
// whose optimistic degrees provably dominate the full-distance conflict
// count, giving the guarantee χ_h(G) <= 1 + max_v UB(v).

#ifndef HCORE_APPS_COLORING_H_
#define HCORE_APPS_COLORING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Result of a greedy distance-h coloring.
struct ColoringResult {
  /// color[v] in [0, num_colors).
  std::vector<uint32_t> color;
  uint32_t num_colors = 0;
  /// The guarantee 1 + max_v UB(v); num_colors <= bound always holds.
  uint32_t bound = 0;
};

/// Greedy distance-h coloring in reverse Algorithm-5 (implicit G^h) peel
/// order. Colors are conflict-checked against full-graph distances via
/// h-bounded BFS, so the result is always a valid distance-h coloring.
ColoringResult DistanceHColoring(const Graph& g, int h);

}  // namespace hcore

#endif  // HCORE_APPS_COLORING_H_
