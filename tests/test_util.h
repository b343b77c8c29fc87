// Shared helpers for the hcore test suites: toy fixture graphs, a small
// corpus of random graphs spanning the structural classes the algorithms
// care about, the fresh decomposition every maintained core vector is
// checked against, the definition-level references (brute-force cores,
// average h-degree and densest subgraph, the h-clique, h-club and
// distance-h coloring predicates, spectrum monotonicity), the connected core
// components the hierarchy is checked against, and deterministic random edit
// batches.

#ifndef HCORE_TESTS_TEST_UTIL_H_
#define HCORE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/densest.h"
#include "core/kh_core.h"
#include "core/spectrum.h"
#include "engine/vertex_mask.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "index/hcore_index.h"
#include "traversal/bounded_bfs.h"
#include "traversal/distances.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcore::testing {

// ---------------------------------------------------------------------------
// Toy fixture graphs (the library's generators keep the paper's example and
// the models the benchmarks draw from).
// ---------------------------------------------------------------------------

/// Path on n vertices: 0-1-2-...-(n-1).
inline Graph Path(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

/// Cycle on n vertices (n >= 3).
inline Graph Cycle(VertexId n) {
  HCORE_CHECK(n >= 3);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.AddEdge(v, (v + 1) % n);
  return b.Build();
}

/// Complete bipartite graph K_{a,b} (side A = [0,a), side B = [a,a+b)).
inline Graph CompleteBipartite(VertexId a, VertexId b_count) {
  GraphBuilder b(a + b_count);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b_count; ++v) b.AddEdge(u, a + v);
  }
  return b.Build();
}

/// Uniformly random spanning tree on n vertices (random attachment order).
inline Graph RandomTree(VertexId n, Rng* rng) {
  GraphBuilder b(n);
  for (VertexId v = 1; v < n; ++v) b.AddEdge(v, rng->NextIndex(v));
  return b.Build();
}

/// Identifies one random graph in the shared corpus.
struct RandomGraphSpec {
  std::string model;  // "gnp-sparse", "gnp-dense", "ba", "ws", "tree", "pp"
  uint32_t n;
  uint64_t seed;

  std::string Name() const {
    std::string sanitized = model;
    for (char& c : sanitized) {
      if (c == '-') c = '_';  // gtest param names must be [A-Za-z0-9_]
    }
    return sanitized + "_n" + std::to_string(n) + "_s" + std::to_string(seed);
  }
};

/// Materializes the graph for a spec (deterministic).
inline Graph MakeRandomGraph(const RandomGraphSpec& spec) {
  Rng rng(spec.seed * 7919 + 13);
  if (spec.model == "gnp-sparse") {
    return gen::ErdosRenyiGnp(spec.n, 2.5 / spec.n, &rng);
  }
  if (spec.model == "gnp-dense") {
    return gen::ErdosRenyiGnp(spec.n, 8.0 / spec.n, &rng);
  }
  if (spec.model == "ba") {
    return gen::BarabasiAlbert(spec.n, 3, &rng);
  }
  if (spec.model == "ws") {
    return gen::WattsStrogatz(spec.n, 2, 0.2, &rng);
  }
  if (spec.model == "tree") {
    return RandomTree(spec.n, &rng);
  }
  if (spec.model == "pp") {
    return gen::PlantedPartition(4, spec.n / 4, 0.5, 0.05, &rng);
  }
  return Graph();
}

/// Standard corpus: every model at a given size over a few seeds.
inline std::vector<RandomGraphSpec> Corpus(uint32_t n, int seeds) {
  std::vector<RandomGraphSpec> out;
  for (const char* model :
       {"gnp-sparse", "gnp-dense", "ba", "ws", "tree", "pp"}) {
    for (int s = 1; s <= seeds; ++s) {
      out.push_back({model, n, static_cast<uint64_t>(s)});
    }
  }
  return out;
}

/// `g` with its vertices scattered uniformly at random over the ids
/// [0, num_ids), num_ids >= n; ids left over are isolated vertices. Spread
/// over at least kGapLocalityWindow ids, a graph's neighbor-id gaps read as
/// scrambled, so VertexOrdering::kAuto relabels it.
inline Graph ScrambledIds(const Graph& g, VertexId num_ids, uint64_t seed) {
  HCORE_CHECK(num_ids >= g.num_vertices());
  std::vector<VertexId> to(num_ids);
  for (VertexId i = 0; i < num_ids; ++i) to[i] = i;
  Rng rng(seed);
  for (VertexId i = num_ids; i > 1; --i) {
    std::swap(to[i - 1], to[rng.NextIndex(i)]);
  }
  GraphBuilder b(num_ids);
  for (const auto& [u, v] : g.Edges()) b.AddEdge(to[u], to[v]);
  return b.Build();
}

/// Exact (k,h)-core indexes of `g` from a fresh decomposition of the graph
/// as given (no relabeling), so relabeling paths are checked against it.
inline std::vector<uint32_t> FreshCores(const Graph& g, int h) {
  KhCoreOptions opts;
  opts.h = h;
  opts.ordering = VertexOrdering::kNone;
  return KhCoreDecomposition(g, opts).core;
}

/// Definition-level (k,h)-core reference: for each k, repeatedly deletes
/// vertices with h-degree < k (recomputing every h-degree from scratch each
/// pass) until a fixpoint. Far slower than the real algorithms; small
/// graphs only.
inline std::vector<uint32_t> BruteForceKhCore(const Graph& g, int h) {
  HCORE_CHECK(h >= 1);
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> core(n, 0);
  VertexMask alive(n, true);
  BoundedBfs bfs(n);
  for (uint32_t k = 1; alive.num_alive() > 0; ++k) {
    // Shrink to the (k,h)-core: repeatedly delete every vertex whose
    // h-degree (recomputed from scratch) is < k.
    bool changed = true;
    while (changed && alive.num_alive() > 0) {
      changed = false;
      std::vector<VertexId> to_remove;
      alive.ForEachAlive([&](VertexId v) {
        if (bfs.HDegree(g, alive, v, h) < k) to_remove.push_back(v);
      });
      for (VertexId v : to_remove) {
        alive.Kill(v);
        changed = true;
      }
    }
    alive.ForEachAlive([&](VertexId v) { core[v] = k; });
  }
  return core;
}

/// Average h-degree of G[S] (0 for the empty set): one unbounded BFS per
/// member inside the induced subgraph, independent of the library's
/// h-bounded BFS.
inline double AverageHDegree(const Graph& g, const std::vector<VertexId>& s,
                             int h) {
  if (s.empty()) return 0.0;
  const Graph sub = g.InducedSubgraph(s).first;
  uint64_t total = 0;
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    const std::vector<uint32_t> dist = BfsDistances(sub, v);
    for (VertexId u = 0; u < sub.num_vertices(); ++u) {
      if (u != v && dist[u] <= static_cast<uint32_t>(h)) ++total;
    }
  }
  return static_cast<double>(total) / static_cast<double>(s.size());
}

/// Exact densest subgraph by average h-degree, by subset enumeration;
/// requires num_vertices <= 20.
inline DensestResult DensestByBruteForce(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(n <= 20);
  DensestResult best;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<VertexId> s;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) s.push_back(v);
    }
    double density = AverageHDegree(g, s, h);
    if (density > best.density || best.vertices.empty()) {
      best.density = density;
      best.vertices = std::move(s);
    }
  }
  return best;
}

/// True iff core indexes are monotone non-decreasing in h for every vertex.
inline bool SpectrumIsMonotone(const SpectrumResult& spectrum) {
  for (size_t i = 1; i < spectrum.core.size(); ++i) {
    for (size_t v = 0; v < spectrum.core[i].size(); ++v) {
      if (spectrum.core[i][v] < spectrum.core[i - 1][v]) return false;
    }
  }
  return true;
}

/// Connected components of the (k,h)-core C_k = {v : core[v] >= k}, each a
/// sorted vertex list. The reference the core hierarchy is checked against:
/// it runs the alive-masked component finder on C_k and shares no code with
/// the hierarchy's union-find sweep.
inline std::vector<std::vector<VertexId>> ConnectedCoreComponents(
    const Graph& g, const std::vector<uint32_t>& core, uint32_t k) {
  const VertexId n = g.num_vertices();
  VertexMask alive(n, false);
  for (VertexId v = 0; v < n; ++v) {
    if (core[v] >= k) alive.Revive(v);
  }
  ConnectedComponents cc = ComputeConnectedComponents(g, alive);
  std::vector<std::vector<VertexId>> out(cc.num_components);
  alive.ForEachAlive([&](VertexId v) { out[cc.component[v]].push_back(v); });
  return out;
}

/// Index options with every default but the indexed depth.
inline HCoreIndexOptions IndexOptions(int max_h) {
  HCoreIndexOptions opts;
  opts.max_h = max_h;
  return opts;
}

/// A deterministic random edit batch against `g`: `inserts` random
/// insertions, then `deletes` deletions of existing edges.
inline std::vector<EdgeEdit> RandomBatch(const Graph& g, Rng* rng,
                                         int inserts, int deletes) {
  std::vector<EdgeEdit> batch;
  const VertexId n = g.num_vertices();
  for (int i = 0; i < inserts; ++i) {
    batch.push_back(EdgeEdit::Insert(rng->NextIndex(n), rng->NextIndex(n)));
  }
  auto edges = g.Edges();
  for (int i = 0; i < deletes && !edges.empty(); ++i) {
    auto [u, v] = edges[rng->NextIndex(static_cast<uint32_t>(edges.size()))];
    batch.push_back(EdgeEdit::Delete(u, v));
  }
  return batch;
}

/// A deterministic mixed batch of `size` edits against `g`: insertions
/// (growing the graph by one vertex now and then) interleaved with
/// deletions of existing edges.
inline std::vector<EdgeEdit> MixedBatch(const Graph& g, Rng* rng, int size) {
  std::vector<EdgeEdit> batch;
  const VertexId n = g.num_vertices();
  auto edges = g.Edges();
  for (int i = 0; i < size; ++i) {
    if (rng->NextBool(0.55) || edges.empty()) {
      batch.push_back(
          EdgeEdit::Insert(rng->NextIndex(n + 1), rng->NextIndex(n + 1)));
    } else {
      auto [u, v] = edges[rng->NextIndex(static_cast<uint32_t>(edges.size()))];
      batch.push_back(EdgeEdit::Delete(u, v));
    }
  }
  return batch;
}

/// True if all pairs of `vertices` are within distance h in the FULL graph,
/// i.e. the set is an h-clique (paper Def. 4). One unbounded BFS per member,
/// independent of the h-clique solver's power-graph search.
inline bool IsHClique(const Graph& g, const std::vector<VertexId>& vertices,
                      int h) {
  for (VertexId v : vertices) {
    const std::vector<uint32_t> dist = BfsDistances(g, v);
    for (VertexId u : vertices) {
      if (dist[u] > static_cast<uint32_t>(h)) return false;  // kUnreachable too
    }
  }
  return true;
}

/// True if the subgraph induced by `vertices` has diameter <= h, i.e. is an
/// h-club (paper Def. 5). Distances are measured inside the induced
/// subgraph. The empty set and singletons are h-clubs.
inline bool IsHClub(const Graph& g, const std::vector<VertexId>& vertices,
                    int h) {
  if (vertices.size() <= 1) return true;
  const Graph sub = g.InducedSubgraph(vertices).first;
  const VertexId n = sub.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<uint32_t> dist = BfsDistances(sub, v);
    for (VertexId u = 0; u < n; ++u) {
      if (dist[u] > static_cast<uint32_t>(h)) return false;  // kUnreachable too
    }
  }
  return true;
}

/// True if `color` is a valid distance-h coloring: every pair of vertices at
/// distance <= h in G has distinct colors.
inline bool IsValidDistanceHColoring(const Graph& g, int h,
                                     const std::vector<uint32_t>& color) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(color.size() == n);
  BoundedBfs bfs(n);
  VertexMask alive(n, true);
  for (VertexId v = 0; v < n; ++v) {
    bool ok = true;
    bfs.Run(g, alive, v, h, [&](VertexId u, int) {
      if (color[u] == color[v]) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace hcore::testing

#endif  // HCORE_TESTS_TEST_UTIL_H_
