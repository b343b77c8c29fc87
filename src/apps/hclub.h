// Maximum h-club (paper §5.2, Theorem 3, Algorithm 7).
//
// An h-club is a vertex set whose induced subgraph has diameter <= h
// (Def. 5); finding a maximum one is NP-hard and not hereditary. The paper's
// contribution is a wrapper (Algorithm 7): run any exact black-box solver on
// the innermost (k,h)-cores instead of on G, exploiting Theorem 3 (every
// h-club of size k+1 lies inside the (k,h)-core).
//
// The paper's black boxes DBC and ITDBC [Moradi & Balasundaram 2015] are
// Gurobi-based integer programs, unavailable here. Substitutes (exact,
// combinatorial):
//   * kBranchAndBound — Bourjolly-style branch & bound on far pairs with a
//     DROP-heuristic incumbent (stands in for DBC);
//   * kIterative — per-vertex neighborhood decomposition: the maximum
//     h-club through v lies in G[N_h[v]]; solve each small instance with
//     the B&B, pruning by the incumbent (stands in for ITDBC).
// Both are exact, so Algorithm 7's correctness and speed-up mechanism are
// preserved: the wrapper only shrinks the instance any exact solver sees.

#ifndef HCORE_APPS_HCLUB_H_
#define HCORE_APPS_HCLUB_H_

#include <cstdint>
#include <vector>

#include "core/kh_core.h"
#include "graph/graph.h"

namespace hcore {

/// Exact black-box solver choice for the maximum h-club problem.
enum class HClubSolver {
  kBranchAndBound,  ///< Far-pair branch & bound (DBC substitute).
  kIterative,       ///< Neighborhood decomposition (ITDBC substitute).
};

/// Result of a maximum h-club search.
struct HClubResult {
  /// Vertices of a maximum h-club (original graph ids).
  std::vector<VertexId> members;
  /// Branch-and-bound nodes explored (cumulative over subproblems).
  uint64_t nodes_explored = 0;
  /// Wall-clock seconds (including any core decomposition).
  double seconds = 0.0;
  /// False only if `max_nodes` was exhausted (members then hold the
  /// incumbent, a valid h-club but possibly not maximum).
  bool optimal = true;

  uint32_t size() const { return static_cast<uint32_t>(members.size()); }
};

/// Options for the exact solvers.
struct HClubOptions {
  int h = 2;
  HClubSolver solver = HClubSolver::kBranchAndBound;
  /// Node budget; 0 = unlimited. When exceeded the incumbent is returned
  /// with optimal = false.
  uint64_t max_nodes = 0;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked every few search
  /// nodes; on expiry the incumbent is returned with optimal = false (the
  /// paper's "NT" protocol).
  double time_limit_seconds = 0.0;
};

/// Exact maximum h-club on the whole graph (no core preprocessing) — the
/// paper's "DBC"/"ITDBC" columns of Table 6.
HClubResult MaxHClub(const Graph& g, const HClubOptions& options);

/// Algorithm 7: maximum h-club via (k,h)-core shrinking. Computes the
/// decomposition with `core_options` (its h is overridden by
/// `options.h`), then repeatedly invokes the black-box solver on
/// G[C_k] from the innermost core outwards until Theorem 3 certifies
/// optimality — the "Alg. 7 + ..." columns of Table 6.
HClubResult MaxHClubWithCorePrefilter(const Graph& g,
                                      const HClubOptions& options,
                                      KhCoreOptions core_options = {});

/// Algorithm 7 served from a PRECOMPUTED decomposition — `core` must be the
/// (k,h)-core indexes of `g` at h = options.h and `degeneracy` their
/// maximum (e.g. an HCoreIndex snapshot's Cores/Degeneracy). Runs no
/// decomposition of its own.
HClubResult MaxHClubFromCores(const Graph& g, const HClubOptions& options,
                              const std::vector<uint32_t>& core,
                              uint32_t degeneracy);

}  // namespace hcore

#endif  // HCORE_APPS_HCLUB_H_
