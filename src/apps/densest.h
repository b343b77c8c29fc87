// Distance-h densest subgraph (paper §5.3, Problem 1, Theorem 4).
//
// The objective is the average h-degree f_h(S) = Σ_v deg^h_{G[S]}(v) / |S|.
// For h = 1 this is twice the classic average-degree density. Exact
// optimization is impractical at scale; the paper proves that the best
// (k,h)-core is a (sqrt(f_h(S*) + 1/4) - 1/2)-approximation (Theorem 4).
// This module provides that core-picking approximation, a Charikar-style
// greedy h-peeling baseline (a density-tracking policy over the shared
// PeelingEngine).

#ifndef HCORE_APPS_DENSEST_H_
#define HCORE_APPS_DENSEST_H_

#include <vector>

#include "core/kh_core.h"
#include "graph/graph.h"

namespace hcore {

/// A candidate densest subgraph with its average h-degree.
struct DensestResult {
  std::vector<VertexId> vertices;
  double density = 0.0;  ///< f_h of the vertex set
};

/// Theorem-4 approximation: among all distinct (k,h)-cores, returns the one
/// with the maximum average h-degree.
DensestResult DensestByCoreDecomposition(const Graph& g, int h,
                                         const KhCoreOptions& core_options = {});

/// Greedy baseline: peel the minimum-h-degree vertex repeatedly (recomputing
/// neighborhood h-degrees exactly) and return the best prefix subgraph. The
/// direct distance generalization of Charikar's 1/2-approximation.
DensestResult DensestByGreedyPeeling(const Graph& g, int h);

}  // namespace hcore

#endif  // HCORE_APPS_DENSEST_H_
