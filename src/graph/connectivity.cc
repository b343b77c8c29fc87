#include "graph/connectivity.h"

#include <algorithm>

namespace hcore {
namespace {

ConnectedComponents ComponentsImpl(const Graph& g, const VertexMask* alive) {
  const VertexId n = g.num_vertices();
  ConnectedComponents out;
  out.component.assign(n, kInvalidComponent);
  std::vector<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    if (out.component[s] != kInvalidComponent) continue;
    if (alive != nullptr && !alive->IsAlive(s)) continue;
    const uint32_t c = out.num_components++;
    out.sizes.push_back(0);
    queue.clear();
    queue.push_back(s);
    out.component[s] = c;
    for (size_t head = 0; head < queue.size(); ++head) {
      VertexId v = queue[head];
      ++out.sizes[c];
      for (VertexId u : g.neighbors(v)) {
        if (out.component[u] != kInvalidComponent) continue;
        if (alive != nullptr && !alive->IsAlive(u)) continue;
        out.component[u] = c;
        queue.push_back(u);
      }
    }
  }
  return out;
}

}  // namespace

ConnectedComponents ComputeConnectedComponents(const Graph& g) {
  return ComponentsImpl(g, nullptr);
}

ConnectedComponents ComputeConnectedComponents(const Graph& g,
                                               const VertexMask& alive) {
  HCORE_CHECK(alive.size() == g.num_vertices());
  return ComponentsImpl(g, &alive);
}

std::vector<VertexId> LargestComponent(const Graph& g) {
  ConnectedComponents cc = ComputeConnectedComponents(g);
  if (cc.num_components == 0) return {};
  uint32_t best = 0;
  for (uint32_t c = 1; c < cc.num_components; ++c) {
    if (cc.sizes[c] > cc.sizes[best]) best = c;
  }
  std::vector<VertexId> out;
  out.reserve(cc.sizes[best]);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cc.component[v] == best) out.push_back(v);
  }
  return out;
}

}  // namespace hcore
