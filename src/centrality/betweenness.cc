#include "centrality/betweenness.h"

#include <algorithm>

namespace hcore {
namespace {

// One Brandes source iteration: accumulates dependencies of `src` into
// `score`.
void BrandesFromSource(const Graph& g, VertexId src,
                       std::vector<double>* score) {
  const VertexId n = g.num_vertices();
  std::vector<int64_t> dist(n, -1);
  std::vector<double> sigma(n, 0.0);  // # shortest paths from src
  std::vector<double> delta(n, 0.0);  // dependency accumulator
  std::vector<VertexId> order;        // vertices in BFS pop order
  order.reserve(64);

  dist[src] = 0;
  sigma[src] = 1.0;
  order.push_back(src);
  for (size_t head = 0; head < order.size(); ++head) {
    VertexId v = order[head];
    for (VertexId u : g.neighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        order.push_back(u);
      }
      if (dist[u] == dist[v] + 1) sigma[u] += sigma[v];
    }
  }
  // Back-propagate dependencies in reverse BFS order.
  for (size_t i = order.size(); i-- > 1;) {
    VertexId w = order[i];
    for (VertexId v : g.neighbors(w)) {
      if (dist[v] == dist[w] - 1) {
        delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w]);
      }
    }
    (*score)[w] += delta[w];
  }
}

}  // namespace

std::vector<double> BetweennessCentrality(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<double> score(n, 0.0);
  for (VertexId src = 0; src < n; ++src) BrandesFromSource(g, src, &score);
  // Each unordered pair was counted twice (once per endpoint as source).
  for (auto& s : score) s /= 2.0;
  return score;
}

}  // namespace hcore
