// Tests for closeness and betweenness centrality on graphs with known
// analytic values.

#include <algorithm>

#include <gtest/gtest.h>

#include "centrality/betweenness.h"
#include "centrality/closeness.h"
#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Cycle;
using ::hcore::testing::Path;

TEST(Closeness, StarHubDominates) {
  Graph g = gen::Star(9);
  std::vector<double> c = ClosenessCentrality(g);
  // Hub at distance 1 from all: closeness 1. Leaves: (1 + 2*7)/8 -> 8/15.
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  for (VertexId v = 1; v < 9; ++v) EXPECT_DOUBLE_EQ(c[v], 8.0 / 15.0);
  EXPECT_EQ(TopK(c, 1)[0], 0u);
}

TEST(Closeness, PathCenterBeatsEnds) {
  Graph g = Path(7);
  std::vector<double> c = ClosenessCentrality(g);
  EXPECT_GT(c[3], c[0]);
  EXPECT_GT(c[3], c[6]);
  EXPECT_DOUBLE_EQ(c[0], c[6]);  // symmetric
  EXPECT_EQ(TopK(c, 1)[0], 3u);
}

TEST(Closeness, DisconnectedUsesComponentCorrection) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);  // pair
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);  // path of 3
  Graph g = b.Build();
  std::vector<double> c = ClosenessCentrality(g);
  for (double x : c) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
  // Middle of the 3-path is the most central vertex of its component and
  // has higher weighted closeness than the tiny pair's vertices.
  EXPECT_GT(c[3], c[0]);
}

TEST(Closeness, TopKOrderingAndTies) {
  std::vector<double> score{0.5, 0.9, 0.9, 0.1};
  std::vector<VertexId> top = TopK(score, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie broken by id
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 0u);
  EXPECT_EQ(TopK(score, 99).size(), 4u);
}

TEST(Betweenness, PathInteriorCounts) {
  // On a path a-b-c, b lies on exactly the one a..c shortest path.
  Graph g = Path(3);
  std::vector<double> bc = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(Betweenness, StarHubCarriesAllPairs) {
  Graph g = gen::Star(6);
  std::vector<double> bc = BetweennessCentrality(g);
  // Hub: C(5,2) = 10 leaf pairs all route through it.
  EXPECT_DOUBLE_EQ(bc[0], 10.0);
  for (VertexId v = 1; v < 6; ++v) EXPECT_DOUBLE_EQ(bc[v], 0.0);
}

TEST(Betweenness, CycleSplitsPathsEvenly) {
  // On C5, for each source there are two equidistant routes to the
  // farthest vertices; every vertex gets the same score by symmetry.
  Graph g = Cycle(5);
  std::vector<double> bc = BetweennessCentrality(g);
  for (VertexId v = 1; v < 5; ++v) EXPECT_NEAR(bc[v], bc[0], 1e-12);
}

TEST(Betweenness, CompleteGraphIsAllZero) {
  Graph g = gen::Complete(5);
  for (double x : BetweennessCentrality(g)) EXPECT_DOUBLE_EQ(x, 0.0);
}

}  // namespace
}  // namespace hcore
