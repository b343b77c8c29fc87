// Tests for the maximum h-club solvers and the Algorithm-7 core wrapper:
// exactness against subset enumeration, Theorem 3, and the Theorem-2 chain.

#include "apps/hclub.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/coloring.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "test_util.h"
#include "traversal/distances.h"

namespace hcore {
namespace {

using ::hcore::testing::IsHClub;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;
using ::hcore::testing::RandomTree;

// Exhaustive maximum h-club for graphs with n <= 16.
uint32_t BruteForceMaxHClubSize(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(n <= 16);
  uint32_t best = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    uint32_t size = static_cast<uint32_t>(__builtin_popcount(mask));
    if (size <= best) continue;
    std::vector<VertexId> s;
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) s.push_back(v);
    }
    if (IsHClub(g, s, h)) best = size;
  }
  return best;
}

TEST(HClubToy, PathMaxClubIsHPlus1) {
  Graph g = Path(12);
  for (int h = 1; h <= 4; ++h) {
    HClubOptions opts;
    opts.h = h;
    HClubResult r = MaxHClub(g, opts);
    EXPECT_EQ(r.size(), static_cast<uint32_t>(h + 1)) << "h=" << h;
    EXPECT_TRUE(IsHClub(g, r.members, h));
    EXPECT_TRUE(r.optimal);
  }
}

TEST(HClubToy, StarMaxTwoClubIsWholeStar) {
  Graph g = gen::Star(8);
  HClubOptions opts;
  opts.h = 2;
  EXPECT_EQ(MaxHClub(g, opts).size(), 8u);
  opts.h = 1;
  EXPECT_EQ(MaxHClub(g, opts).size(), 2u);  // any edge
}

TEST(HClubToy, CompleteGraphIsItsOwnClub) {
  Graph g = gen::Complete(7);
  HClubOptions opts;
  opts.h = 1;
  EXPECT_EQ(MaxHClub(g, opts).size(), 7u);
}

TEST(HClubToy, DisconnectedGraphPicksBestComponent) {
  GraphBuilder b(9);
  // Component A: triangle. Component B: star with 4 leaves.
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  for (VertexId leaf = 4; leaf < 9; ++leaf) b.AddEdge(3, leaf);
  Graph g = b.Build();
  HClubOptions opts;
  opts.h = 2;
  HClubResult r = MaxHClub(g, opts);
  EXPECT_EQ(r.size(), 6u);  // the whole star
  EXPECT_TRUE(IsHClub(g, r.members, 2));
}

TEST(HClubBudget, NodeBudgetReturnsIncumbentNonOptimal) {
  // One search node: the answer is the DROP heuristic's incumbent (or what
  // the root node finds), which must still be a non-empty h-club.
  Rng rng(21);
  Graph g = gen::ErdosRenyiGnp(40, 0.12, &rng);
  for (int h = 2; h <= 3; ++h) {
    HClubOptions opts;
    opts.h = h;
    opts.max_nodes = 1;
    HClubResult r = MaxHClub(g, opts);
    EXPECT_FALSE(r.members.empty()) << "h=" << h;
    EXPECT_TRUE(IsHClub(g, r.members, h)) << "h=" << h;
  }
}

class HClubProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(HClubProperty, SolversMatchBruteForce) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 14;
  Graph g = MakeRandomGraph(small);
  const uint32_t expect = BruteForceMaxHClubSize(g, h);
  for (HClubSolver solver :
       {HClubSolver::kBranchAndBound, HClubSolver::kIterative}) {
    HClubOptions opts;
    opts.h = h;
    opts.solver = solver;
    HClubResult direct = MaxHClub(g, opts);
    EXPECT_EQ(direct.size(), expect) << "solver=" << static_cast<int>(solver);
    EXPECT_TRUE(IsHClub(g, direct.members, h));
    HClubResult wrapped = MaxHClubWithCorePrefilter(g, opts);
    EXPECT_EQ(wrapped.size(), expect) << "wrapped";
    EXPECT_TRUE(IsHClub(g, wrapped.members, h));
  }
}

TEST_P(HClubProperty, Theorem3ClubInsideCore) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 24;
  Graph g = MakeRandomGraph(small);
  HClubOptions opts;
  opts.h = h;
  HClubResult r = MaxHClub(g, opts);
  ASSERT_TRUE(r.optimal);
  if (r.size() == 0) return;
  KhCoreOptions copts;
  copts.h = h;
  KhCoreResult cores = KhCoreDecomposition(g, copts);
  // Theorem 3: an h-club of size k+1 is inside the (k,h)-core.
  const uint32_t k = r.size() - 1;
  for (VertexId v : r.members) {
    EXPECT_GE(cores.core[v], k) << "club member " << v;
  }
}

TEST_P(HClubProperty, Theorem2Chain) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 14;
  Graph g = MakeRandomGraph(small);
  // ŵ_h <= χ_h <= num_colors <= 1 + max UB: any valid distance-h coloring
  // upper-bounds χ_h, and an h-club meets each color class at most once.
  HClubOptions opts;
  opts.h = h;
  HClubResult club = MaxHClub(g, opts);
  ColoringResult coloring = DistanceHColoring(g, h);
  EXPECT_LE(club.size(), coloring.num_colors);
  EXPECT_LE(coloring.num_colors, coloring.bound);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HClubProperty,
    ::testing::Combine(::testing::ValuesIn(hcore::testing::Corpus(14, 3)),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HClubWrapper, MatchesDirectOnMediumGraph) {
  // Well-separated communities keep the direct exact search tractable: the
  // maximum 2-club is essentially one block, and vertices elsewhere are
  // filtered as hopeless once the incumbent reaches block size.
  Rng rng(23);
  Graph g = gen::PlantedPartition(4, 12, 0.6, 0.01, &rng);
  for (int h : {2, 3}) {
    HClubOptions opts;
    opts.h = h;
    opts.max_nodes = 5'000'000;  // safety valve; not expected to trigger
    HClubResult direct = MaxHClub(g, opts);
    HClubResult wrapped = MaxHClubWithCorePrefilter(g, opts);
    ASSERT_TRUE(direct.optimal) << "h=" << h;
    ASSERT_TRUE(wrapped.optimal) << "h=" << h;
    EXPECT_EQ(direct.size(), wrapped.size()) << "h=" << h;
    EXPECT_TRUE(IsHClub(g, wrapped.members, h));
  }
}

TEST(HClubWrapper, WrapperExploresNoMoreNodes) {
  // The headline claim of §6.5: solving inside the innermost cores explores
  // no more B&B nodes than solving on the whole graph. A sparse tree-like
  // graph plus one planted dense pocket keeps the direct search finite
  // while giving the wrapper a much smaller core to work on.
  Rng rng(24);
  GraphBuilder b;
  Graph tree = RandomTree(120, &rng);
  for (const auto& [u, v] : tree.Edges()) b.AddEdge(u, v);
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) b.AddEdge(u, v);  // K10 pocket
  }
  Graph g = b.Build();
  HClubOptions opts;
  opts.h = 2;
  opts.max_nodes = 5'000'000;
  HClubResult direct = MaxHClub(g, opts);
  HClubResult wrapped = MaxHClubWithCorePrefilter(g, opts);
  ASSERT_TRUE(direct.optimal);
  ASSERT_TRUE(wrapped.optimal);
  EXPECT_EQ(direct.size(), wrapped.size());
  EXPECT_LE(wrapped.nodes_explored, direct.nodes_explored);
}

}  // namespace
}  // namespace hcore
