#include "apps/densest.h"

#include <algorithm>

#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

/// Average h-degree of G[S] (0 for the empty set).
double AverageHDegree(const Graph& g, const std::vector<VertexId>& s, int h) {
  if (s.empty()) return 0.0;
  VertexMask alive(g.num_vertices(), s);
  BoundedBfs bfs(g.num_vertices());
  uint64_t total = 0;
  for (VertexId v : s) total += bfs.HDegree(g, alive, v, h);
  return static_cast<double>(total) / static_cast<double>(s.size());
}

}  // namespace

DensestResult DensestByCoreDecomposition(const Graph& g, int h,
                                         const KhCoreOptions& core_options) {
  KhCoreOptions opts = core_options;
  opts.h = h;
  KhCoreResult cores = KhCoreDecomposition(g, opts);

  // Distinct core levels, high to low; evaluate f_h for each.
  std::vector<uint32_t> levels(cores.core.begin(), cores.core.end());
  std::sort(levels.begin(), levels.end(), std::greater<uint32_t>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  DensestResult best;
  for (uint32_t k : levels) {
    std::vector<VertexId> members = cores.CoreVertices(k);
    double density = AverageHDegree(g, members, h);
    if (density > best.density ||
        (best.vertices.empty() && !members.empty())) {
      best.density = density;
      best.vertices = std::move(members);
    }
  }
  return best;
}

namespace {

/// Charikar-style greedy h-peeling as an engine policy: track the exact sum
/// of h-degrees through every key change, remember the best prefix density.
/// Pinned-bucket skipping must stay off — the degree sum needs every
/// affected neighbor's key refreshed, even when its bucket cannot change.
struct GreedyDensestPolicy : PeelPolicyBase {
  static constexpr bool kSkipPinned = false;

  GreedyDensestPolicy(PeelingEngine* engine, uint64_t degree_sum)
      : engine(engine), degree_sum(degree_sum) {}

  bool OnPop(VertexId v, uint32_t) {
    removal_order.push_back(v);
    degree_sum -= engine->keys()[v];
    return true;
  }

  PeelAction OnNeighbor(VertexId, int dist, uint32_t) {
    // dist == h: removing the popped vertex shrinks the neighbor's h-degree
    // by exactly 1 (same exactness argument as Algorithm 3, line 17), so
    // the decrement keeps the degree sum exact without a BFS.
    return dist < engine->h() ? PeelAction::kRecompute : PeelAction::kDecrement;
  }

  void OnKeyUpdate(VertexId, uint32_t old_key, uint32_t new_key) {
    degree_sum += new_key;
    degree_sum -= old_key;
  }

  void OnPeeled(VertexId, uint32_t) {
    const VertexId remaining = engine->alive().num_alive();
    if (remaining == 0) return;
    const double density =
        static_cast<double>(degree_sum) / static_cast<double>(remaining);
    if (density > best_density) {
      best_density = density;
      best_removed = removal_order.size();
    }
  }

  PeelingEngine* engine;
  uint64_t degree_sum;
  std::vector<VertexId> removal_order;
  double best_density = 0.0;
  size_t best_removed = 0;
};

}  // namespace

DensestResult DensestByGreedyPeeling(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  DensestResult best;
  if (n == 0) return best;

  VertexMask alive(n, true);
  BoundedBfs bfs;
  PeelingEngine engine(g, h, &alive, &bfs, n);
  engine.SeedAliveWithHDegrees();
  uint64_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) degree_sum += engine.keys()[v];

  GreedyDensestPolicy policy(&engine, degree_sum);
  policy.best_density = static_cast<double>(degree_sum) / n;
  engine.Peel(0, n, policy);

  std::vector<uint8_t> in_best(n, 1);
  for (size_t i = 0; i < policy.best_removed; ++i) {
    in_best[policy.removal_order[i]] = 0;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (in_best[v]) best.vertices.push_back(v);
  }
  best.density = policy.best_density;
  return best;
}

}  // namespace hcore
