#include "graph/sampling.h"

#include <algorithm>

namespace hcore {

Graph SnowballSample(const Graph& g, VertexId target_size, Rng* rng) {
  const VertexId n = g.num_vertices();
  target_size = std::min(target_size, n);
  if (target_size == 0) return Graph();
  std::vector<uint8_t> visited(n, 0);
  std::vector<VertexId> collected;
  collected.reserve(target_size);
  std::vector<VertexId> queue;
  while (collected.size() < target_size) {
    VertexId seed = rng->NextIndex(n);
    while (visited[seed]) seed = rng->NextIndex(n);
    queue.clear();
    queue.push_back(seed);
    visited[seed] = 1;
    for (size_t head = 0; head < queue.size(); ++head) {
      VertexId v = queue[head];
      collected.push_back(v);
      if (collected.size() == target_size) break;
      for (VertexId u : g.neighbors(v)) {
        if (!visited[u]) {
          visited[u] = 1;
          queue.push_back(u);
        }
      }
    }
  }
  return g.InducedSubgraph(std::move(collected)).first;
}

}  // namespace hcore
