#include "core/classic_core.h"

#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

/// Batagelj–Zaveršnik peeling expressed as an engine policy: every surviving
/// neighbor of a removed vertex takes an exact unit decrement, and the pop
/// order doubles as the (reversed) degeneracy ordering.
struct ClassicPolicy : PeelPolicyBase {
  explicit ClassicPolicy(ClassicCoreResult* out) : out(out) {}

  PeelAction OnNeighbor(VertexId, int, uint32_t) {
    return PeelAction::kDecrement;
  }

  void OnPeeled(VertexId v, uint32_t k) {
    // Buckets are visited in ascending order, so k is the running maximum
    // peel level and equals the core index of v.
    out->core[v] = k;
    out->peel_order.push_back(v);
    out->degeneracy = k;
  }

  ClassicCoreResult* out;
};

}  // namespace

ClassicCoreResult ClassicCoreDecomposition(const Graph& g) {
  const VertexId n = g.num_vertices();
  ClassicCoreResult out;
  out.core.assign(n, 0);
  out.peel_order.reserve(n);
  if (n == 0) return out;

  VertexMask alive(n, true);
  BoundedBfs bfs;  // never grown: the h = 1 peel walks adjacency directly
  PeelingEngine engine(g, /*h=*/1, &alive, &bfs, g.MaxDegree());
  for (VertexId v = 0; v < n; ++v) engine.Seed(v, g.degree(v));

  ClassicPolicy policy(&out);
  engine.Peel(0, g.MaxDegree(), policy);
  return out;
}

}  // namespace hcore
