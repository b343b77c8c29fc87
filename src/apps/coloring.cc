#include "apps/coloring.h"

#include <algorithm>

#include "core/bounds.h"
#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

/// Smallest-h-degree-last ordering as an engine policy: record pops, give
/// every surviving neighbor a full recomputation.
struct HPeelOrderPolicy : PeelPolicyBase {
  explicit HPeelOrderPolicy(std::vector<VertexId>* order) : order(order) {}

  void OnPeeled(VertexId v, uint32_t) { order->push_back(v); }

  std::vector<VertexId>* order;
};

}  // namespace

std::vector<VertexId> HPeelOrder(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order;
  order.reserve(n);
  if (n == 0) return order;

  VertexMask alive(n, true);
  BoundedBfs bfs;
  PeelingEngine engine(g, h, &alive, &bfs, n);
  engine.SeedAliveWithHDegrees();
  HPeelOrderPolicy policy(&order);
  engine.Peel(0, n, policy);
  return order;
}

ColoringResult DistanceHColoring(const Graph& g, int h, ColoringOrder order) {
  const VertexId n = g.num_vertices();
  ColoringResult out;
  out.color.assign(n, 0);
  if (n == 0) return out;

  BoundedBfs bfs(n);
  std::vector<VertexId> peel;
  if (order == ColoringOrder::kUpperBoundPeel) {
    VertexMask all(n, true);
    std::vector<uint32_t> hdeg;
    ComputeAllAlive(g, all, h, &bfs, &hdeg);
    std::vector<uint32_t> ub =
        ComputePowerGraphUpperBound(g, h, hdeg, &bfs, &peel);
    uint32_t max_ub = 0;
    for (uint32_t x : ub) max_ub = std::max(max_ub, x);
    out.bound = max_ub + 1;
  } else {
    peel = HPeelOrder(g, h);
    // Heuristic bound: 1 + Ĉ_h, i.e. 1 + the largest clamp level reached.
    // Computed from the peel itself below (h-degree of the last vertex is
    // not the degeneracy in general), so derive it from a decomposition-
    // style pass: the peel order's clamped keys are not retained here, so
    // report 0 and let callers consult KhCoreDecomposition if needed.
    out.bound = 0;
  }

  constexpr uint32_t kUncolored = 0xFFFFFFFFu;
  std::vector<uint32_t> color(n, kUncolored);
  VertexMask all_alive(n, true);
  std::vector<uint8_t> used;  // used[c] != 0: color c conflicts
  uint32_t num_colors = 0;
  // Color in reverse peel order; conflicts are colored vertices within
  // full-graph distance h.
  for (auto it = peel.rbegin(); it != peel.rend(); ++it) {
    const VertexId v = *it;
    used.assign(num_colors + 1, 0);
    bfs.Run(g, all_alive, v, h, [&](VertexId u, int) {
      if (color[u] != kUncolored && color[u] < used.size()) used[color[u]] = 1;
    });
    uint32_t c = 0;
    while (c < used.size() && used[c]) ++c;
    color[v] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  out.color = std::move(color);
  out.num_colors = num_colors;
  return out;
}

}  // namespace hcore
