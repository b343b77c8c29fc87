#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/connectivity.h"

namespace hcore::gen {

Graph Star(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 1; v < n; ++v) b.AddEdge(0, v);
  return b.Build();
}

Graph Complete(VertexId n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return b.Build();
}

Graph Grid(VertexId rows, VertexId cols) {
  GraphBuilder b(rows * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      VertexId v = r * cols + c;
      if (c + 1 < cols) b.AddEdge(v, v + 1);
      if (r + 1 < rows) b.AddEdge(v, v + cols);
    }
  }
  return b.Build();
}

Graph PaperFigure1() {
  // Reconstruction of the paper's Figure 1 (ids shifted down by one). Two
  // degree-5 hubs (v4, v9 in paper numbering) each serve four spokes; the
  // spokes are cross-paired between the hubs; v2 and v3 are degree-2 entry
  // points and v1 bridges them. Verified properties (tested in
  // tests/kh_core_test.cc): classic core index 2 for all vertices;
  // (k,2)-cores as in the paper: core(v1)=4, core(v2)=core(v3)=5,
  // core(v4..v13)=6; LB1/LB2 values of Example 3; UB values of Example 5.
  GraphBuilder b(13);
  const std::pair<VertexId, VertexId> kEdges[] = {
      {0, 1}, {0, 2},                    // v1-v2, v1-v3
      {1, 3}, {2, 8},                    // v2-v4, v3-v9
      {3, 4}, {3, 5}, {3, 6}, {3, 7},    // hub v4 spokes v5..v8
      {8, 9}, {8, 10}, {8, 11}, {8, 12}, // hub v9 spokes v10..v13
      {4, 9}, {5, 10}, {6, 11}, {7, 12}, // cross pairs v5-v10 .. v8-v13
  };
  for (const auto& [u, v] : kEdges) b.AddEdge(u, v);
  return b.Build();
}

Graph ErdosRenyiGnp(VertexId n, double p, Rng* rng) {
  GraphBuilder b(n);
  if (n < 2 || p <= 0.0) return b.Build();
  if (p >= 1.0) return Complete(n);
  // Geometric skipping (Batagelj & Brandes): iterate candidate pairs in
  // lexicographic order, jumping Geom(p) positions between accepted edges.
  const double log1p = std::log(1.0 - p);
  int64_t v = 1;
  int64_t w = -1;
  while (v < n) {
    double r = rng->NextDouble();
    w += 1 + static_cast<int64_t>(std::floor(std::log(1.0 - r) / log1p));
    while (w >= v && v < n) {
      w -= v;
      ++v;
    }
    if (v < n) b.AddEdge(static_cast<VertexId>(w), static_cast<VertexId>(v));
  }
  return b.Build();
}

Graph BarabasiAlbert(VertexId n, uint32_t attach, Rng* rng) {
  HCORE_CHECK(attach >= 1);
  const VertexId seed = std::min<VertexId>(n, attach + 1);
  GraphBuilder b(n);
  std::vector<VertexId> endpoints;  // Each vertex appears deg(v) times.
  for (VertexId u = 0; u < seed; ++u) {
    for (VertexId v = u + 1; v < seed; ++v) {
      b.AddEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<VertexId> targets;
  for (VertexId v = seed; v < n; ++v) {
    targets.clear();
    while (targets.size() < attach) {
      VertexId t = endpoints[rng->NextIndex(
          static_cast<uint32_t>(endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (VertexId t : targets) {
      b.AddEdge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return b.Build();
}

Graph WattsStrogatz(VertexId n, uint32_t k, double beta, Rng* rng) {
  HCORE_CHECK(n > 2 * k);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint32_t j = 1; j <= k; ++j) {
      VertexId u = (v + j) % n;
      if (rng->NextBool(beta)) {
        // Rewire the far endpoint to a uniform random vertex (avoid self).
        VertexId w = rng->NextIndex(n);
        while (w == v) w = rng->NextIndex(n);
        b.AddEdge(v, w);
      } else {
        b.AddEdge(v, u);
      }
    }
  }
  return b.Build();
}

Graph ChungLuPowerLaw(VertexId n, uint64_t target_edges, double gamma,
                      Rng* rng) {
  HCORE_CHECK(gamma > 2.0);
  GraphBuilder b(n);
  if (n < 2 || target_edges == 0) return b.Build();
  const double alpha = 1.0 / (gamma - 1.0);
  std::vector<double> w(n);
  double total = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -alpha);
    total += w[i];
  }
  // Scale so the expected edge count ~ target_edges (sum w = 2m).
  const double scale = 2.0 * static_cast<double>(target_edges) / total;
  for (auto& x : w) x *= scale;
  const double big_w = 2.0 * static_cast<double>(target_edges);
  // Miller–Hagberg efficient Chung–Lu sampling over descending weights.
  // Weights are already descending in i.
  for (VertexId i = 0; i + 1 < n; ++i) {
    VertexId j = i + 1;
    double p = std::min(1.0, w[i] * w[j] / big_w);
    while (j < n && p > 0.0) {
      if (p < 1.0) {
        double r = rng->NextDouble();
        double skip = std::floor(std::log(1.0 - r) / std::log(1.0 - p));
        if (skip >= static_cast<double>(n - j)) break;
        j += static_cast<VertexId>(skip);
      }
      if (j >= n) break;
      double q = std::min(1.0, w[i] * w[j] / big_w);
      if (rng->NextDouble() < q / p) b.AddEdge(i, j);
      p = q;
      ++j;
    }
  }
  return b.Build();
}

Graph RoadLattice(VertexId rows, VertexId cols, double keep_prob, Rng* rng) {
  GraphBuilder b(rows * cols);
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      VertexId v = r * cols + c;
      if (c + 1 < cols && rng->NextBool(keep_prob)) b.AddEdge(v, v + 1);
      if (r + 1 < rows && rng->NextBool(keep_prob)) b.AddEdge(v, v + cols);
      // Sparse local diagonals: ~2% of cells get a shortcut, mimicking the
      // occasional non-grid road.
      if (r + 1 < rows && c + 1 < cols && rng->NextBool(0.02)) {
        b.AddEdge(v, v + cols + 1);
      }
    }
  }
  return Connectify(b.Build(), rng);
}

namespace {

// Calls fn(t) for every index t in [0, count) kept by an independent
// Bernoulli(p) draw, via geometric gap sampling: expected O(p * count)
// RNG draws instead of count. Same per-index distribution as drawing
// each index separately (the gaps of a Bernoulli process are geometric).
template <typename Fn>
void SampleBernoulliIndices(uint64_t count, double p, Rng* rng, Fn&& fn) {
  if (p <= 0.0 || count == 0) return;
  if (p >= 1.0) {
    for (uint64_t t = 0; t < count; ++t) fn(t);
    return;
  }
  const double denom = std::log1p(-p);  // < 0
  uint64_t t = 0;
  for (;;) {
    const double u = 1.0 - rng->NextDouble();  // (0, 1]
    const double skip = std::floor(std::log(u) / denom);
    if (skip >= static_cast<double>(count)) return;  // also caps overflow
    t += static_cast<uint64_t>(skip);
    if (t >= count) return;
    fn(t);
    ++t;
  }
}

// Inverts the row-major rank of pair (u, v), u < v, over N vertices:
// rank = offset(u) + (v - u - 1) with offset(r) = r*(N-1) - r*(r-1)/2.
// The closed-form sqrt inversion can land a row off at double precision,
// so it is corrected locally.
void DecodePairRank(uint64_t t, uint64_t n, VertexId* u, VertexId* v) {
  const auto offset = [n](uint64_t r) { return r * (n - 1) - r * (r - 1) / 2; };
  const double w = 2.0 * static_cast<double>(n) - 1.0;
  const double root = std::sqrt(w * w - 8.0 * static_cast<double>(t));
  double guess = std::floor((w - root) / 2.0);
  uint64_t row = guess <= 0.0 ? 0 : static_cast<uint64_t>(guess);
  while (row + 1 < n && offset(row + 1) <= t) ++row;
  while (row > 0 && offset(row) > t) --row;
  *u = static_cast<VertexId>(row);
  *v = static_cast<VertexId>(row + 1 + (t - offset(row)));
}

}  // namespace

Graph PlantedPartition(uint32_t communities, VertexId block_size, double p_in,
                       double p_out, Rng* rng) {
  const VertexId n = communities * block_size;
  GraphBuilder b(n);
  // Gap sampling keeps this O(expected edges): the earlier per-pair loop
  // was O(n^2) draws and took hours at 10^6 vertices. Intra-block pairs
  // are governed by one pass per block at p_in; a single all-pairs pass at
  // p_out governs the inter-block pairs (its intra hits are dropped — those
  // cells already got their p_in draw). Per-pair marginals are unchanged;
  // only the RNG stream differs from the old loop for a given seed.
  const uint64_t bs = block_size;
  SampleBernoulliIndices(
      static_cast<uint64_t>(communities) * (bs * (bs - 1) / 2), p_in, rng,
      [&](uint64_t t) {
        const uint64_t block = t / (bs * (bs - 1) / 2);
        const VertexId base = static_cast<VertexId>(block * bs);
        VertexId u, v;
        DecodePairRank(t % (bs * (bs - 1) / 2), bs, &u, &v);
        b.AddEdge(base + u, base + v);
      });
  SampleBernoulliIndices(
      static_cast<uint64_t>(n) * (n - 1) / 2, p_out, rng, [&](uint64_t t) {
        VertexId u, v;
        DecodePairRank(t, n, &u, &v);
        if (u / block_size != v / block_size) b.AddEdge(u, v);
      });
  return b.Build();
}

Graph StarHeavySocial(VertexId n, uint64_t target_edges, uint32_t hubs,
                      double hub_fraction, Rng* rng) {
  Graph backbone = ChungLuPowerLaw(n, target_edges, 2.5, rng);
  GraphBuilder b(n);
  for (const auto& [u, v] : backbone.Edges()) b.AddEdge(u, v);
  const uint32_t fanout =
      static_cast<uint32_t>(hub_fraction * static_cast<double>(n));
  for (uint32_t i = 0; i < hubs; ++i) {
    VertexId hub = rng->NextIndex(n);
    for (uint32_t j = 0; j < fanout; ++j) {
      VertexId v = rng->NextIndex(n);
      if (v != hub) b.AddEdge(hub, v);
    }
  }
  return b.Build();
}

Graph CliqueOverlay(VertexId n, uint32_t num_cliques, uint32_t min_size,
                    uint32_t max_size, double tail, Rng* rng) {
  HCORE_CHECK(min_size >= 2);
  HCORE_CHECK(max_size >= min_size);
  HCORE_CHECK(tail > 1.0);
  max_size = std::min<uint32_t>(max_size, n);
  GraphBuilder b(n);
  std::vector<VertexId> members;
  for (uint32_t c = 0; c < num_cliques; ++c) {
    // Truncated Pareto sample for the clique size.
    double u = rng->NextDouble();
    double raw = min_size * std::pow(1.0 - u, -1.0 / (tail - 1.0));
    uint32_t size = static_cast<uint32_t>(
        std::min<double>(raw, static_cast<double>(max_size)));
    size = std::max(size, min_size);
    members = rng->SampleWithoutReplacement(n, size);
    for (uint32_t i = 0; i < size; ++i) {
      for (uint32_t j = i + 1; j < size; ++j) {
        b.AddEdge(members[i], members[j]);
      }
    }
  }
  return Connectify(b.Build(), rng);
}

Graph Connectify(const Graph& g, Rng* rng) {
  ConnectedComponents cc = ComputeConnectedComponents(g);
  if (cc.num_components <= 1) return g;
  GraphBuilder b(g.num_vertices());
  for (const auto& [u, v] : g.Edges()) b.AddEdge(u, v);
  // Pick one representative per component and chain them with random
  // members, keeping determinism.
  std::vector<std::vector<VertexId>> members(cc.num_components);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    members[cc.component[v]].push_back(v);
  }
  for (uint32_t c = 1; c < cc.num_components; ++c) {
    VertexId u = members[c - 1][rng->NextIndex(
        static_cast<uint32_t>(members[c - 1].size()))];
    VertexId v =
        members[c][rng->NextIndex(static_cast<uint32_t>(members[c].size()))];
    b.AddEdge(u, v);
  }
  return b.Build();
}

}  // namespace hcore::gen
