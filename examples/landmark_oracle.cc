// Landmark-based shortest-path estimation (§6.6): selecting landmarks from
// the innermost (k,h)-core versus centrality baselines, then answering one
// (s, t) query with the core-chosen oracle's bounds.

#include <cstdio>

#include "apps/landmarks.h"
#include "graph/generators.h"
#include "traversal/distances.h"
#include "util/rng.h"

int main() {
  hcore::Rng rng(11);
  hcore::Graph g = hcore::gen::BarabasiAlbert(1000, 4, &rng);
  std::printf("social graph: n = %u, m = %llu\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("%-18s %-6s %s\n", "strategy", "h", "mean relative error");

  const uint32_t kLandmarks = 20;
  const uint32_t kPairs = 100;

  for (int h : {1, 2, 3, 4}) {
    hcore::Rng pick(100 + h);
    auto landmarks = hcore::SelectLandmarks(
        g, kLandmarks, hcore::LandmarkStrategy::kMaxKhCore, h, &pick);
    hcore::LandmarkOracle oracle(g, landmarks);
    hcore::Rng eval(55);
    double err = hcore::EvaluateLandmarkError(g, oracle, kPairs, &eval);
    std::printf("%-18s h=%-4d %.4f\n", "max-(k,h)-core", h, err);
  }
  for (auto [name, strategy] :
       {std::pair{"closeness", hcore::LandmarkStrategy::kCloseness},
        std::pair{"betweenness", hcore::LandmarkStrategy::kBetweenness},
        std::pair{"degree", hcore::LandmarkStrategy::kHDegree},
        std::pair{"random", hcore::LandmarkStrategy::kRandom}}) {
    hcore::Rng pick(200);
    hcore::LandmarkOracle oracle(
        g, hcore::SelectLandmarks(g, kLandmarks, strategy, 1, &pick));
    hcore::Rng eval(55);
    double err = hcore::EvaluateLandmarkError(g, oracle, kPairs, &eval);
    std::printf("%-18s %-6s %.4f\n", name, "-", err);
  }

  // One query: the triangle-inequality sandwich around the exact distance.
  hcore::Rng pick(102);
  hcore::LandmarkOracle oracle(
      g, hcore::SelectLandmarks(g, kLandmarks,
                                hcore::LandmarkStrategy::kMaxKhCore, 2, &pick));
  const hcore::VertexId s = 0;
  const hcore::VertexId t = g.num_vertices() - 1;
  std::printf("query (%u, %u): %u <= d <= %u, estimate %.1f, exact %u\n", s,
              t, oracle.LowerBound(s, t), oracle.UpperBound(s, t),
              oracle.Estimate(s, t), hcore::Distance(g, s, t));
  return 0;
}
