// Tests for landmark selection and the triangle-inequality distance oracle.

#include "apps/landmarks.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"
#include "traversal/distances.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(LandmarkSelection, AllStrategiesReturnRequestedCount) {
  Rng rng(41);
  Graph g = gen::BarabasiAlbert(200, 3, &rng);
  for (LandmarkStrategy s :
       {LandmarkStrategy::kMaxKhCore, LandmarkStrategy::kCloseness,
        LandmarkStrategy::kBetweenness, LandmarkStrategy::kHDegree,
        LandmarkStrategy::kRandom}) {
    Rng pick(7);
    std::vector<VertexId> l = SelectLandmarks(g, 10, s, 2, &pick);
    EXPECT_EQ(l.size(), 10u) << static_cast<int>(s);
    std::sort(l.begin(), l.end());
    EXPECT_EQ(std::unique(l.begin(), l.end()), l.end()) << "duplicates";
    for (VertexId v : l) EXPECT_LT(v, g.num_vertices());
  }
}

TEST(LandmarkSelection, MaxCoreSmallerThanRequestReturnsWholeCore) {
  Graph g = gen::PaperFigure1();
  Rng rng(42);
  std::vector<VertexId> l =
      SelectLandmarks(g, 50, LandmarkStrategy::kMaxKhCore, 2, &rng);
  EXPECT_EQ(l.size(), 10u);  // the (6,2)-core has 10 vertices
}

TEST(LandmarkSelection, CountClampsAndZero) {
  Graph g = Path(5);
  Rng rng(43);
  EXPECT_TRUE(SelectLandmarks(g, 0, LandmarkStrategy::kRandom, 1, &rng).empty());
  EXPECT_EQ(
      SelectLandmarks(g, 99, LandmarkStrategy::kCloseness, 1, &rng).size(), 5u);
}

TEST(LandmarkOracle, BoundsSandwichTrueDistance) {
  Rng rng(44);
  Graph g = gen::Connectify(gen::ErdosRenyiGnp(120, 0.04, &rng), &rng);
  Rng pick(3);
  LandmarkOracle oracle(
      g, SelectLandmarks(g, 8, LandmarkStrategy::kMaxKhCore, 2, &pick));
  for (int trial = 0; trial < 200; ++trial) {
    VertexId s = pick.NextIndex(g.num_vertices());
    VertexId t = pick.NextIndex(g.num_vertices());
    if (s == t) continue;
    uint32_t d = Distance(g, s, t);
    ASSERT_NE(d, kUnreachable);
    EXPECT_LE(oracle.LowerBound(s, t), d);
    EXPECT_GE(oracle.UpperBound(s, t), d);
  }
}

TEST(LandmarkOracle, ExactWhenQueryHitsLandmark) {
  Graph g = Path(9);
  LandmarkOracle oracle(g, {0});
  // For s = landmark the sandwich is tight: |d(0,0)-d(0,t)| = d = d(0,0)+d(0,t).
  for (VertexId t = 1; t < 9; ++t) {
    EXPECT_EQ(oracle.LowerBound(0, t), t);
    EXPECT_EQ(oracle.UpperBound(0, t), t);
    EXPECT_DOUBLE_EQ(oracle.Estimate(0, t), t);
  }
}

TEST(LandmarkOracle, PathCenterLandmarkIsExactOnOppositeSides) {
  Graph g = Path(9);  // center = 4
  LandmarkOracle oracle(g, {4});
  // s, t on opposite sides of the landmark: UB is exact.
  EXPECT_EQ(oracle.UpperBound(0, 8), 8u);
  EXPECT_EQ(oracle.LowerBound(0, 8), 0u);
  // Same side: LB is exact.
  EXPECT_EQ(oracle.LowerBound(5, 8), 3u);
}

TEST(LandmarkOracle, DisconnectedPairsHandled) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  LandmarkOracle oracle(g, {0});
  EXPECT_EQ(oracle.UpperBound(0, 2), kUnreachable);
  EXPECT_EQ(oracle.LowerBound(0, 2), 0u);
}

class LandmarkProperty : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(LandmarkProperty, ErrorMetricIsFiniteAndCoreBeatsNothingAbsurd) {
  Graph g = MakeRandomGraph(GetParam());
  Rng rng(GetParam().seed + 99);
  Graph connected = gen::Connectify(g, &rng);
  Rng pick(5);
  for (LandmarkStrategy s :
       {LandmarkStrategy::kMaxKhCore, LandmarkStrategy::kCloseness,
        LandmarkStrategy::kRandom}) {
    LandmarkOracle oracle(connected,
                          SelectLandmarks(connected, 6, s, 2, &pick));
    Rng eval(6);
    double err = EvaluateLandmarkError(connected, oracle, 60, &eval);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 2.0) << "relative error should be small-ish";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, LandmarkProperty,
                         ::testing::ValuesIn(Corpus(60, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

}  // namespace
}  // namespace hcore
