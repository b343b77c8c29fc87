// Tests for the exact maximum clique / maximum h-clique solver, including
// the full Theorem-2 chain with the h-clique link in place.

#include "apps/hclique.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/coloring.h"
#include "apps/hclub.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"
#include "traversal/distances.h"

namespace hcore {
namespace {

using ::hcore::testing::CompleteBipartite;
using ::hcore::testing::Cycle;
using ::hcore::testing::IsHClique;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

// The classic maximum clique: MaxHClique at h = 1.
HCliqueResult MaxClique(const Graph& g) { return MaxHClique(g, 1); }

// Exhaustive maximum clique size for n <= 20.
uint32_t BruteForceMaxCliqueSize(const Graph& g) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(n <= 20);
  uint32_t best = 0;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    uint32_t size = static_cast<uint32_t>(__builtin_popcount(mask));
    if (size <= best) continue;
    bool clique = true;
    for (VertexId u = 0; u < n && clique; ++u) {
      if (!(mask & (1u << u))) continue;
      for (VertexId v = u + 1; v < n && clique; ++v) {
        if ((mask & (1u << v)) && !g.HasEdge(u, v)) clique = false;
      }
    }
    if (clique) best = size;
  }
  return best;
}

TEST(MaxCliqueToy, KnownGraphs) {
  EXPECT_EQ(MaxClique(gen::Complete(7)).size(), 7u);
  EXPECT_EQ(MaxClique(Cycle(6)).size(), 2u);
  EXPECT_EQ(MaxClique(Cycle(3)).size(), 3u);
  EXPECT_EQ(MaxClique(gen::Star(9)).size(), 2u);
  EXPECT_EQ(MaxClique(CompleteBipartite(4, 4)).size(), 2u);
  EXPECT_EQ(MaxClique(Graph()).size(), 0u);
  GraphBuilder lone(3);
  EXPECT_EQ(MaxClique(lone.Build()).size(), 1u);
}

TEST(MaxCliqueToy, ReturnsActualClique) {
  Rng rng(71);
  Graph g = gen::ErdosRenyiGnp(60, 0.3, &rng);
  HCliqueResult r = MaxClique(g);
  for (size_t i = 0; i < r.members.size(); ++i) {
    for (size_t j = i + 1; j < r.members.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(r.members[i], r.members[j]));
    }
  }
}

TEST(MaxHCliqueToy, PathAndStar) {
  // On a path, an h-clique is h+1 consecutive vertices.
  Graph path = Path(12);
  for (int h = 1; h <= 4; ++h) {
    EXPECT_EQ(MaxHClique(path, h).size(), static_cast<uint32_t>(h + 1));
  }
  // All vertices of a star are pairwise within distance 2.
  EXPECT_EQ(MaxHClique(gen::Star(8), 2).size(), 8u);
}

TEST(MaxHClique, LeavesOfStarCountUnlikeClubs) {
  // The h-clique relaxation: star leaves form a 2-clique via the hub even
  // when the hub is excluded; a 2-club would need the hub.
  GraphBuilder b(6);
  for (VertexId leaf = 1; leaf < 6; ++leaf) b.AddEdge(0, leaf);
  Graph g = b.Build();
  HCliqueResult clique = MaxHClique(g, 2);
  EXPECT_EQ(clique.size(), 6u);
  EXPECT_TRUE(IsHClique(g, clique.members, 2));
}

class HCliqueProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(HCliqueProperty, MatchesBruteForceOnPowerGraph) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 16;
  Graph g = MakeRandomGraph(small);
  HCliqueResult r = MaxHClique(g, h);
  EXPECT_TRUE(IsHClique(g, r.members, h));
  // Reference: max clique of the materialized power graph.
  Graph gh = PowerGraph(g, h);
  EXPECT_EQ(r.size(), BruteForceMaxCliqueSize(gh)) << small.Name();
}

TEST_P(HCliqueProperty, Theorem2FullChain) {
  // ω(G) <= ŵ_h <= w̃_h <= χ_h <= num_colors.
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 14;
  Graph g = MakeRandomGraph(small);
  HCliqueResult clique1 = MaxClique(g);
  HClubOptions club_opts;
  club_opts.h = h;
  HClubResult club = MaxHClub(g, club_opts);
  HCliqueResult hclique = MaxHClique(g, h);
  ColoringResult coloring = DistanceHColoring(g, h);
  EXPECT_LE(clique1.size(), club.size());
  EXPECT_LE(club.size(), hclique.size());
  EXPECT_LE(hclique.size(), coloring.num_colors);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HCliqueProperty,
    ::testing::Combine(::testing::ValuesIn(hcore::testing::Corpus(16, 2)),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hcore
