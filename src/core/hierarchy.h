// Hierarchy of connected (k,h)-core components.
//
// The paper's related work (§2, Sariyüce & Pinar [51]) builds, for classic
// cores, the tree of nested connected components across core levels — the
// structure practitioners actually browse ("this community splits into
// those sub-communities at k+1"). This module generalizes it to
// (k,h)-cores: given the core indexes, it constructs the dendrogram whose
// leaves are the innermost connected core components and whose root(s) are
// the connected components of C_0 = V.
//
// Construction runs one union-find sweep over vertices in decreasing core
// order (O(n α(n) + m)) after the decomposition itself, keeping only the
// current node of each union-find root. The same sweep counts |C_k| and
// |E(G[C_k])| for every level, which is all that ranking levels by edge
// density |E(G[C_k])| / |C_k| needs (HCoreSnapshot::TopDensestLevels). That
// is f_1/2 in §5.3's terms; at h >= 2 it is not the average h-degree f_h of
// the paper's densest-subgraph problem (apps/densest.h). NOTE: components
// are measured with graph edges inside the core vertex set, which for
// h-cores matches the paper's usage of "connected (k,h)-core" (e.g. the
// cocktail-party application of Appendix B).

#ifndef HCORE_CORE_HIERARCHY_H_
#define HCORE_CORE_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// One node of the core-component hierarchy.
struct CoreHierarchyNode {
  /// Core level k at which this component exists (its vertices all have
  /// core index >= k, and the component is connected in G[C_k]).
  uint32_t level = 0;
  /// Parent node id (kNoParent for roots, i.e. components of C_0).
  uint32_t parent = kNoParentSentinel;
  /// Children node ids (components at higher levels that merge into this
  /// one, or that gain vertices when the level drops).
  std::vector<uint32_t> children;
  /// Vertices that first appear in the hierarchy at this node (their core
  /// index equals `level`). The full vertex set of the component is the
  /// union over the node's subtree.
  std::vector<VertexId> new_vertices;
  /// Total vertices in the subtree (== |component| at this level).
  uint32_t subtree_size = 0;

  static constexpr uint32_t kNoParentSentinel = 0xFFFFFFFFu;
};

/// The hierarchy: a forest over core levels.
struct CoreHierarchy {
  std::vector<CoreHierarchyNode> nodes;
  /// node_of[v]: the node where vertex v first appears.
  std::vector<uint32_t> node_of;
  /// Ids of root nodes (one per connected component of G).
  std::vector<uint32_t> roots;
  /// Suffix counts over k in [0, max core]: vertices_in_core[k] = |C_k| and
  /// edges_in_core[k] = |E(G[C_k])|. The sweep counts each edge once, at
  /// the level of its shallower endpoint: a level-k vertex counts an edge
  /// to a deeper neighbor always, and one to another level-k vertex only
  /// from the larger id. (Both hold one zero entry for the empty graph.)
  std::vector<uint32_t> vertices_in_core;
  std::vector<uint64_t> edges_in_core;

  /// All vertices of the component represented by `node` (subtree union).
  std::vector<VertexId> ComponentVertices(uint32_t node) const;
};

/// Builds the hierarchy from a decomposition's core indexes. `core` must
/// have one entry per vertex of `g` (as produced by KhCoreDecomposition).
/// The output is deterministic: within a level, node ids follow each
/// node's smallest new vertex, and deeper levels get smaller ids.
/// `new_vertices`, `children` and `roots` are ascending.
CoreHierarchy BuildCoreHierarchy(const Graph& g,
                                 const std::vector<uint32_t>& core);

}  // namespace hcore

#endif  // HCORE_CORE_HIERARCHY_H_
