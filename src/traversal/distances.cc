#include "traversal/distances.h"

#include <algorithm>

#include "graph/connectivity.h"

namespace hcore {
namespace {

std::vector<uint32_t> BfsImpl(const Graph& g, VertexId src,
                              const VertexMask* alive) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> dist(n, kUnreachable);
  std::vector<VertexId> queue;
  queue.reserve(64);
  dist[src] = 0;
  queue.push_back(src);
  for (size_t head = 0; head < queue.size(); ++head) {
    VertexId v = queue[head];
    for (VertexId u : g.neighbors(v)) {
      if (dist[u] != kUnreachable) continue;
      if (alive != nullptr && !alive->IsAlive(u)) continue;
      dist[u] = dist[v] + 1;
      queue.push_back(u);
    }
  }
  return dist;
}

// Max finite BFS distance from `v` (its eccentricity within its component).
uint32_t Eccentricity(const Graph& g, VertexId v) {
  uint32_t ecc = 0;
  for (uint32_t d : BfsImpl(g, v, nullptr)) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const Graph& g, VertexId src) {
  HCORE_CHECK(src < g.num_vertices());
  return BfsImpl(g, src, nullptr);
}

std::vector<uint32_t> BfsDistances(const Graph& g, const VertexMask& alive,
                                   VertexId src) {
  HCORE_CHECK(src < g.num_vertices());
  HCORE_CHECK(alive.size() == g.num_vertices());
  HCORE_CHECK(alive.IsAlive(src));
  return BfsImpl(g, src, &alive);
}

uint32_t Distance(const Graph& g, VertexId u, VertexId v) {
  if (u == v) return 0;
  // Early-exit BFS.
  const VertexId n = g.num_vertices();
  HCORE_CHECK(u < n && v < n);
  std::vector<uint32_t> dist(n, kUnreachable);
  std::vector<VertexId> queue;
  dist[u] = 0;
  queue.push_back(u);
  for (size_t head = 0; head < queue.size(); ++head) {
    VertexId x = queue[head];
    for (VertexId y : g.neighbors(x)) {
      if (dist[y] != kUnreachable) continue;
      dist[y] = dist[x] + 1;
      if (y == v) return dist[y];
      queue.push_back(y);
    }
  }
  return kUnreachable;
}

uint32_t ExactDiameter(const Graph& g) {
  uint32_t diam = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    diam = std::max(diam, Eccentricity(g, v));
  }
  return diam;
}

uint32_t EstimateDiameter(const Graph& g, int sweeps, Rng* rng) {
  const VertexId n = g.num_vertices();
  if (n == 0) return 0;
  uint32_t best = 0;
  for (int s = 0; s < sweeps; ++s) {
    VertexId src = rng->NextIndex(n);
    // Double sweep: BFS to the farthest vertex, then BFS from it.
    std::vector<uint32_t> d1 = BfsDistances(g, src);
    VertexId far = src;
    uint32_t far_d = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (d1[v] != kUnreachable && d1[v] > far_d) {
        far_d = d1[v];
        far = v;
      }
    }
    best = std::max(best, Eccentricity(g, far));
  }
  return best;
}

}  // namespace hcore
