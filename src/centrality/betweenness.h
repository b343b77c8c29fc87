// Betweenness centrality via Brandes' algorithm (exact). Baseline landmark
// selector in §6.6.

#ifndef HCORE_CENTRALITY_BETWEENNESS_H_
#define HCORE_CENTRALITY_BETWEENNESS_H_

#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Exact Brandes betweenness, O(n·m). Scores are unnormalized pair counts
/// (each unordered pair contributes once).
std::vector<double> BetweennessCentrality(const Graph& g);

}  // namespace hcore

#endif  // HCORE_CENTRALITY_BETWEENNESS_H_
