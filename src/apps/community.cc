#include "apps/community.h"

#include "util/check.h"

namespace hcore {

CommunityResult DistanceCocktailParty(const Graph& g,
                                      const std::vector<VertexId>& query,
                                      int h,
                                      const KhCoreOptions& core_options) {
  if (query.empty() || g.num_vertices() == 0) return {};
  KhCoreOptions opts = core_options;
  opts.h = h;
  KhCoreResult cores = KhCoreDecomposition(g, opts);
  return DistanceCocktailPartyFromCores(g, query, h, cores.core);
}

CommunityResult DistanceCocktailPartyFromCores(
    const Graph& g, const std::vector<VertexId>& query, int /*h*/,
    const std::vector<uint32_t>& core) {
  if (query.empty() || g.num_vertices() == 0) return {};
  return CommunityFromHierarchy(BuildCoreHierarchy(g, core), query);
}

CommunityResult CommunityFromHierarchy(const CoreHierarchy& tree,
                                       const std::vector<VertexId>& query) {
  constexpr uint32_t kNone = CoreHierarchyNode::kNoParentSentinel;
  CommunityResult out;
  if (query.empty()) return out;
  for (VertexId q : query) HCORE_CHECK(q < tree.node_of.size());

  // Deepest common ancestor: a parent sits at a strictly lower level than
  // its child, so stepping the deeper of two nodes up meets at the deepest
  // node holding both. Reaching past a root means different components.
  uint32_t common = tree.node_of[query.front()];
  for (VertexId q : query) {
    uint32_t other = tree.node_of[q];
    while (common != other) {
      uint32_t& deeper =
          tree.nodes[common].level >= tree.nodes[other].level ? common : other;
      deeper = tree.nodes[deeper].parent;
      if (deeper == kNone) return out;
    }
  }
  out.feasible = true;
  out.core_level = tree.nodes[common].level;
  out.min_h_degree = out.core_level;
  out.vertices = tree.ComponentVertices(common);
  return out;
}

}  // namespace hcore
