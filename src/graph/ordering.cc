#include "graph/ordering.h"

#include <algorithm>
#include <numeric>

#include "graph/connectivity.h"
#include "util/check.h"

namespace hcore {
namespace {

// Vertices by descending degree, ties by ascending id: BfsOrder's seeds.
std::vector<VertexId> DegreeDescendingOrder(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    return g.degree(a) > g.degree(b);
  });
  return order;
}

}  // namespace

std::vector<VertexId> BfsOrder(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<uint8_t> seen(n, 0);
  // Component seeds, best-degree first, so the largest structures get the
  // lowest (hottest) id range.
  std::vector<VertexId> seeds = DegreeDescendingOrder(g);
  for (VertexId s : seeds) {
    if (seen[s]) continue;
    seen[s] = 1;
    const size_t head_start = order.size();
    order.push_back(s);
    for (size_t head = head_start; head < order.size(); ++head) {
      for (VertexId u : g.neighbors(order[head])) {
        if (seen[u]) continue;
        seen[u] = 1;
        order.push_back(u);
      }
    }
  }
  return order;
}

std::vector<uint32_t> GatherByPermutation(std::span<const uint32_t> values,
                                          std::span<const VertexId> perm) {
  HCORE_CHECK(values.size() == perm.size());
  std::vector<uint32_t> out(values.size());
  for (size_t i = 0; i < perm.size(); ++i) out[i] = values[perm[i]];
  return out;
}

std::vector<uint32_t> ScatterByPermutation(std::span<const uint32_t> values,
                                           std::span<const VertexId> perm) {
  HCORE_CHECK(values.size() == perm.size());
  std::vector<uint32_t> out(values.size());
  for (size_t i = 0; i < perm.size(); ++i) out[perm[i]] = values[i];
  return out;
}

double MeanNeighborGapFraction(const Graph& g, VertexId samples) {
  const VertexId n = g.num_vertices();
  if (n == 0 || samples == 0) return 0.0;
  // Per-component scoring (see the header): a gap only indicates scrambling
  // relative to the component it lives in, clamped below by the locality
  // window so tiny-but-contiguous components never look scrambled.
  const ConnectedComponents cc = ComputeConnectedComponents(g);
  const VertexId step = std::max<VertexId>(1, n / samples);
  double sum = 0.0;
  uint64_t count = 0;
  for (VertexId v = 0; v < n; v += step) {
    const double scale =
        std::max(cc.sizes[cc.component[v]], kGapLocalityWindow);
    for (VertexId u : g.neighbors(v)) {
      const double gap = v > u ? v - u : u - v;
      sum += std::min(1.0, gap / scale);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

std::vector<VertexId> InvertPermutation(std::span<const VertexId> perm) {
  std::vector<VertexId> inverse(perm.size(), kInvalidVertex);
  for (VertexId i = 0; i < perm.size(); ++i) {
    HCORE_CHECK(perm[i] < perm.size());
    HCORE_CHECK(inverse[perm[i]] == kInvalidVertex);  // must be a bijection
    inverse[perm[i]] = i;
  }
  return inverse;
}

}  // namespace hcore
