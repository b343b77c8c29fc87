// Tests for the distance-h densest subgraph: exactness of the brute force,
// the Theorem-4 approximation guarantee of the core-picking method, and the
// greedy peeling baseline.

#include "apps/densest.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::AverageHDegree;
using ::hcore::testing::DensestByBruteForce;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(Densest, AverageHDegreeBasics) {
  Graph g = Path(5);
  // Whole path, h=1: degrees 1,2,2,2,1 -> avg 8/5.
  std::vector<VertexId> all{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(AverageHDegree(g, all, 1), 8.0 / 5);
  // Induced pair at distance 2 has h-degree 0 inside the pair.
  EXPECT_DOUBLE_EQ(AverageHDegree(g, {0, 2}, 1), 0.0);
  EXPECT_DOUBLE_EQ(AverageHDegree(g, {}, 1), 0.0);
}

TEST(Densest, CompleteGraphIsItsOwnDensest) {
  Graph g = gen::Complete(8);
  for (int h : {1, 2}) {
    DensestResult core = DensestByCoreDecomposition(g, h);
    EXPECT_EQ(core.vertices.size(), 8u);
    EXPECT_DOUBLE_EQ(core.density, 7.0);
    DensestResult greedy = DensestByGreedyPeeling(g, h);
    EXPECT_DOUBLE_EQ(greedy.density, 7.0);
  }
}

TEST(Densest, CliqueWithTailIsolatesClique) {
  // K5 with a pendant path: the densest subgraph (h=1) is the clique.
  GraphBuilder b(9);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  Graph g = b.Build();
  DensestResult exact = DensestByBruteForce(g, 1);
  EXPECT_DOUBLE_EQ(exact.density, 4.0);
  EXPECT_EQ(exact.vertices.size(), 5u);
  DensestResult core = DensestByCoreDecomposition(g, 1);
  EXPECT_EQ(core.vertices.size(), 5u);
  EXPECT_DOUBLE_EQ(core.density, 4.0);
}

class DensestProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(DensestProperty, Theorem4ApproximationBound) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 14;
  Graph g = MakeRandomGraph(small);
  DensestResult exact = DensestByBruteForce(g, h);
  DensestResult core = DensestByCoreDecomposition(g, h);
  // Theorem 4: f_h(C) >= sqrt(f_h(S*) + 1/4) - 1/2.
  const double guarantee = std::sqrt(exact.density + 0.25) - 0.5;
  EXPECT_GE(core.density + 1e-9, guarantee)
      << "exact=" << exact.density << " core=" << core.density;
  // And trivially the approximation can never beat the optimum.
  EXPECT_LE(core.density, exact.density + 1e-9);
}

TEST_P(DensestProperty, GreedyPeelingAlsoMeetsTheBoundAndBeatsNothing) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 14;
  Graph g = MakeRandomGraph(small);
  DensestResult exact = DensestByBruteForce(g, h);
  DensestResult greedy = DensestByGreedyPeeling(g, h);
  EXPECT_LE(greedy.density, exact.density + 1e-9);
  EXPECT_GT(greedy.vertices.size(), 0u);
  // Reported density matches a recomputation on the returned set.
  EXPECT_NEAR(greedy.density, AverageHDegree(g, greedy.vertices, h), 1e-9);
}

TEST_P(DensestProperty, ReportedDensityMatchesVertices) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 30;
  Graph g = MakeRandomGraph(small);
  DensestResult core = DensestByCoreDecomposition(g, h);
  EXPECT_NEAR(core.density, AverageHDegree(g, core.vertices, h), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DensestProperty,
    ::testing::Combine(::testing::ValuesIn(hcore::testing::Corpus(14, 2)),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hcore
