// Connected components and related helpers, over the full graph or over an
// alive-masked subgraph view (engine/vertex_mask.h).

#ifndef HCORE_GRAPH_CONNECTIVITY_H_
#define HCORE_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"

namespace hcore {

/// Result of a connected-components computation.
struct ConnectedComponents {
  /// component[v] is the 0-based component id of v (ids ordered by the
  /// smallest vertex in the component).
  std::vector<uint32_t> component;
  uint32_t num_components = 0;

  /// Size of component `c`.
  std::vector<uint32_t> sizes;
};

/// Computes connected components by BFS.
ConnectedComponents ComputeConnectedComponents(const Graph& g);

/// Computes connected components of the subgraph induced by the alive
/// vertices. Dead vertices get component id kInvalidComponent.
inline constexpr uint32_t kInvalidComponent = 0xFFFFFFFFu;
ConnectedComponents ComputeConnectedComponents(const Graph& g,
                                               const VertexMask& alive);

/// Vertices of the largest connected component.
std::vector<VertexId> LargestComponent(const Graph& g);

}  // namespace hcore

#endif  // HCORE_GRAPH_CONNECTIVITY_H_
