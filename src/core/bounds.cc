#include "core/bounds.h"

#include <algorithm>

#include "engine/peeling_engine.h"

namespace hcore {

std::vector<uint32_t> ComputeLB1(const Graph& g, int h, BoundedBfs* bfs) {
  HCORE_CHECK(h >= 2);
  const VertexId n = g.num_vertices();
  const int radius = h / 2;  // ⌊h/2⌋ >= 1 for h >= 2.
  VertexMask alive(n, true);
  std::vector<uint32_t> lb1(n, 0);
  ComputeAllAlive(g, alive, radius, bfs, &lb1);
  return lb1;
}

std::vector<uint32_t> ComputeLB2(const Graph& g, int h,
                                 const std::vector<uint32_t>& lb1) {
  HCORE_CHECK(h >= 2);
  const VertexId n = g.num_vertices();
  // The closed r-ball of v is the union of the closed (r-1)-balls of v's
  // closed 1-neighborhood, so ⌈h/2⌉ double-buffered sweeps of "max over the
  // closed 1-neighborhood" give the max of LB1 over the closed ⌈h/2⌉-ball.
  std::vector<uint32_t> lb2 = lb1;
  std::vector<uint32_t> next(n);
  for (int round = 0; round < (h + 1) / 2; ++round) {
    for (VertexId v = 0; v < n; ++v) {
      uint32_t best = lb2[v];
      for (VertexId u : g.neighbors(v)) best = std::max(best, lb2[u]);
      next[v] = best;
    }
    lb2.swap(next);
  }
  return lb2;
}

namespace {

/// Algorithm 5 as an engine policy: unit decrements only (peeling the
/// implicit power graph G^h), recording the peel level and removal order.
struct PowerGraphUbPolicy : PeelPolicyBase {
  PowerGraphUbPolicy(std::vector<uint32_t>* ub, std::vector<VertexId>* order)
      : ub(ub), order(order) {}

  PeelAction OnNeighbor(VertexId, int, uint32_t) {
    return PeelAction::kDecrement;
  }

  void OnPeeled(VertexId v, uint32_t k) {
    (*ub)[v] = k;  // k is the running maximum bucket = classic core index
    if (order != nullptr) order->push_back(v);
  }

  std::vector<uint32_t>* ub;
  std::vector<VertexId>* order;
};

}  // namespace

std::vector<uint32_t> ComputePowerGraphUpperBound(
    const Graph& g, int h, const std::vector<uint32_t>& hdeg,
    BoundedBfs* bfs, std::vector<VertexId>* peel_order) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> ub(n, 0);
  if (peel_order != nullptr) {
    peel_order->clear();
    peel_order->reserve(n);
  }
  if (n == 0) return ub;
  uint32_t max_key = 0;
  for (uint32_t d : hdeg) max_key = std::max(max_key, d);

  VertexMask alive(n, true);
  PeelingEngine engine(g, h, &alive, bfs, max_key);
  for (VertexId v = 0; v < n; ++v) engine.Seed(v, hdeg[v]);
  PowerGraphUbPolicy policy(&ub, peel_order);
  engine.Peel(0, max_key, policy);
  return ub;
}

ImproveLbResult ImproveLB(const Graph& g, int h, uint32_t k_min,
                          VertexMask* alive, const std::vector<uint32_t>& lb2,
                          const std::vector<uint8_t>& settled,
                          uint32_t settled_floor, BoundedBfs* bfs) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(settled.size() == n);
  ImproveLbResult out;
  out.lb3.assign(n, 0);

  // Only unsettled candidates are measured; a settled one's h-degree in the
  // candidate set is >= its core index >= settled_floor (Observation 3).
  std::vector<VertexId> open;
  bool any_settled = false;
  alive->ForEachAlive([&](VertexId v) {
    if (settled[v]) {
      any_settled = true;
    } else {
      open.push_back(v);
    }
  });
  if (open.empty() && !any_settled) return out;
  out.computed = open.size();

  // Minimum h-degree over the candidate set, before cleaning (Property 3),
  // with settled_floor standing in for every settled candidate.
  std::vector<uint32_t> hdeg(n, 0);
  uint32_t min_hdeg = any_settled ? settled_floor : UINT32_MAX;
  for (const VertexId v : open) {
    hdeg[v] = bfs->HDegree(g, *alive, v, h);
    min_hdeg = std::min(min_hdeg, hdeg[v]);
  }

  // Cascade-remove vertices whose optimistic h-degree sinks below k_min.
  // As in Algorithm 5, each removal only decrements neighbors by 1 (an
  // upper bound on the true h-degree), which is sound for exclusion.
  // Settled vertices never sink below k_min, so they are never decremented.
  std::vector<VertexId> stack;
  std::vector<uint8_t> queued(n, 0);
  for (VertexId v : open) {
    if (hdeg[v] < k_min) {
      stack.push_back(v);
      queued[v] = 1;
    }
  }
  Neighborhood nbhd;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    if (!alive->IsAlive(v)) continue;
    bfs->CollectNeighborhood(g, *alive, v, h, &nbhd);
    alive->Kill(v);
    ++out.removed;
    nbhd.ForEach([&](VertexId u, int) {
      if (!alive->IsAlive(u) || settled[u]) return;
      if (hdeg[u] > 0) --hdeg[u];
      if (hdeg[u] < k_min && !queued[u]) {
        stack.push_back(u);
        queued[u] = 1;
      }
    });
  }

  alive->ForEachAlive(
      [&](VertexId v) { out.lb3[v] = std::max(lb2[v], min_hdeg); });
  return out;
}

}  // namespace hcore
