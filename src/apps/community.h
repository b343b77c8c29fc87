// Distance-generalized cocktail party / community search (paper Appendix B).
//
// Given query vertices Q, find a connected vertex set S ⊇ Q maximizing the
// minimum h-degree of G[S] (Problem 2). The optimum is the connected
// component containing Q of the (k,h)-core with the largest k for which all
// of Q are in one component: in the core-component hierarchy
// (core/hierarchy.h), the deepest common ancestor of Q's nodes.
//
// The reported objective needs no h-bounded search: min_h_degree equals
// core_level k for every feasible answer S.
//   1. S is a component of C_k, so an h-path inside C_k that starts in S
//      stays in S. Every member therefore has h-degree >= k in G[S].
//   2. S holds a vertex whose core index is exactly k. Otherwise S would
//      also be a component of C_{k+1}, and Q would be together at k+1.
//   3. If every member had h-degree > k in G[S], S would lie inside
//      C_{k+1}, contradicting step 2. So the minimum is exactly k.

#ifndef HCORE_APPS_COMMUNITY_H_
#define HCORE_APPS_COMMUNITY_H_

#include <vector>

#include "core/hierarchy.h"
#include "core/kh_core.h"
#include "graph/graph.h"

namespace hcore {

/// Result of a distance-generalized cocktail-party query.
struct CommunityResult {
  /// Whether a connected solution containing all of Q exists at all (false
  /// iff the query vertices are split across components of G).
  bool feasible = false;
  /// The community (empty when infeasible).
  std::vector<VertexId> vertices;
  /// The achieved objective: min_v deg^h_{G[S]}(v).
  uint32_t min_h_degree = 0;
  /// The core level k at which the solution was extracted.
  uint32_t core_level = 0;
};

/// Solves the distance-generalized cocktail-party problem exactly via the
/// (k,h)-core decomposition and one hierarchy build. Query ids must be
/// valid vertices.
CommunityResult DistanceCocktailParty(const Graph& g,
                                      const std::vector<VertexId>& query,
                                      int h,
                                      const KhCoreOptions& core_options = {});

/// Same query served from a PRECOMPUTED decomposition — `core` must be the
/// (k,h)-core indexes of `g` at this `h` (e.g. an HCoreIndex snapshot's
/// Cores(h)); the answer depends on `core` alone. Runs no decomposition:
/// each call costs one O(n α(n) + m) hierarchy build. Callers with many
/// queries should build the hierarchy once (HCoreSnapshot caches one per
/// level) and call CommunityFromHierarchy.
CommunityResult DistanceCocktailPartyFromCores(
    const Graph& g, const std::vector<VertexId>& query, int h,
    const std::vector<uint32_t>& core);

/// Same query read off a core-component hierarchy: the deepest common
/// ancestor of the query's nodes gives core_level (its level), vertices
/// (its component, sorted) and min_h_degree (== core_level). Infeasible when
/// the query is empty or spans two roots. Costs the ancestor walk, at most
/// one step per core level per query vertex, plus the component's size.
CommunityResult CommunityFromHierarchy(const CoreHierarchy& tree,
                                       const std::vector<VertexId>& query);

}  // namespace hcore

#endif  // HCORE_APPS_COMMUNITY_H_
