// Maximum h-clique (paper Def. 4, Theorem 2).
//
// An h-clique is a vertex set whose members are pairwise within distance h
// in the FULL graph — equivalently, a clique of the power graph G^h. Unlike
// h-clubs, h-cliques are hereditary, so the classic clique machinery
// applies: this module materializes G^h, shrinks it with the classic core
// decomposition (a clique of size k+1 lies in the k-core), and runs a
// Tomita-style branch & bound with a greedy-coloring upper bound.
//
// Used by the test suite to validate the full Theorem-2 chain
//   ω(G) <= ŵ_h(G) <= w̃_h(G) <= χ_h(G) <= 1 + Ĉ_h(G)   (paper's claim)
// and as a standalone primitive (the paper discusses h-cliques as the
// hereditary relaxation of h-clubs).

#ifndef HCORE_APPS_HCLIQUE_H_
#define HCORE_APPS_HCLIQUE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Result of a maximum h-clique search.
struct HCliqueResult {
  std::vector<VertexId> members;
  uint64_t nodes_explored = 0;
  double seconds = 0.0;

  uint32_t size() const { return static_cast<uint32_t>(members.size()); }
};

/// Exact maximum h-clique of `g` (h >= 1). Materializes G^h: memory is
/// Θ(Σ_v deg^h(v)); intended for small/medium graphs or after shrinking.
/// At h = 1 it searches `g` itself: the classic maximum clique.
HCliqueResult MaxHClique(const Graph& g, int h);

}  // namespace hcore

#endif  // HCORE_APPS_HCLIQUE_H_
