#include "apps/coloring.h"

#include <algorithm>

#include "core/bounds.h"
#include "engine/vertex_mask.h"
#include "traversal/bounded_bfs.h"

namespace hcore {

ColoringResult DistanceHColoring(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  ColoringResult out;
  out.color.assign(n, 0);
  if (n == 0) return out;

  BoundedBfs bfs(n);
  VertexMask all_alive(n, true);
  std::vector<uint32_t> hdeg;
  ComputeAllAlive(g, all_alive, h, &bfs, &hdeg);
  std::vector<VertexId> peel;
  std::vector<uint32_t> ub =
      ComputePowerGraphUpperBound(g, h, hdeg, &bfs, &peel);
  uint32_t max_ub = 0;
  for (uint32_t x : ub) max_ub = std::max(max_ub, x);
  out.bound = max_ub + 1;

  constexpr uint32_t kUncolored = 0xFFFFFFFFu;
  std::vector<uint32_t> color(n, kUncolored);
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
