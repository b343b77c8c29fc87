// Shared helpers for the hcore test suites: a small corpus of random graphs
// spanning the structural classes the algorithms care about, the fresh
// decomposition every maintained core vector is checked against, the
// connected core components the hierarchy is checked against,
// deterministic random edit batches, and the h-clique predicate.

#ifndef HCORE_TESTS_TEST_UTIL_H_
#define HCORE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/kh_core.h"
#include "engine/vertex_mask.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "index/hcore_index.h"
#include "traversal/distances.h"
#include "util/rng.h"

namespace hcore::testing {

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
    return gen::RandomTree(spec.n, &rng);
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

/// Exact (k,h)-core indexes of `g` from a fresh decomposition of the graph
/// as given (no relabeling), so relabeling paths are checked against it.
inline std::vector<uint32_t> FreshCores(const Graph& g, int h) {
  KhCoreOptions opts;
  opts.h = h;
  opts.ordering = VertexOrdering::kNone;
  return KhCoreDecomposition(g, opts).core;
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

}  // namespace hcore::testing

#endif  // HCORE_TESTS_TEST_UTIL_H_
