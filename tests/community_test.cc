// Tests for the distance-generalized cocktail-party community search
// (Appendix B): exact optimality against subset enumeration on tiny graphs,
// a level-by-level BFS reference on larger ones, and structural guarantees.

#include "apps/community.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "index/hcore_index.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"
#include "util/rng.h"

namespace hcore {
namespace {

using ::hcore::testing::FreshCores;
using ::hcore::testing::IndexOptions;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

uint32_t MinHDegree(const Graph& g, const std::vector<VertexId>& s, int h) {
  VertexMask mask(g.num_vertices(), s);
  BoundedBfs bfs(g.num_vertices());
  uint32_t best = g.num_vertices();
  for (VertexId v : s) best = std::min(best, bfs.HDegree(g, mask, v, h));
  return best;
}

// Exhaustive optimum of Problem 2 for n <= 14.
uint32_t BruteForceCocktail(const Graph& g, const std::vector<VertexId>& q,
                            int h) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(n <= 14);
  uint32_t q_mask = 0;
  for (VertexId v : q) q_mask |= (1u << v);
  uint32_t best = 0;
  bool found = false;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if ((mask & q_mask) != q_mask) continue;
    std::vector<VertexId> s;
    VertexMask alive(n, false);
    for (VertexId v = 0; v < n; ++v) {
      if (mask & (1u << v)) {
        s.push_back(v);
        alive.Revive(v);
      }
    }
    if (ComputeConnectedComponents(g, alive).num_components != 1) continue;
    uint32_t value = MinHDegree(g, s, h);
    if (!found || value > best) best = value;
    found = true;
  }
  HCORE_CHECK(found || q.empty());
  return best;
}

// Vertices of C_k = {v : core[v] >= k} reachable from `source` inside
// G[C_k], sorted; empty when `source` is not in C_k. A plain BFS: shares no
// code with the hierarchy or the component finder.
std::vector<VertexId> ReachInCore(const Graph& g,
                                  const std::vector<uint32_t>& core,
                                  uint32_t k, VertexId source) {
  if (core[source] < k) return {};
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> reached{source};
  seen[source] = 1;
  for (size_t i = 0; i < reached.size(); ++i) {
    for (VertexId u : g.neighbors(reached[i])) {
      if (seen[u] == 0 && core[u] >= k) {
        seen[u] = 1;
        reached.push_back(u);
      }
    }
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

// Whether every query vertex lies in one component of G[C_k].
bool TogetherAt(const Graph& g, const std::vector<uint32_t>& core, uint32_t k,
                const std::vector<VertexId>& q) {
  const std::vector<VertexId> reached = ReachInCore(g, core, k, q.front());
  for (VertexId v : q) {
    if (!std::binary_search(reached.begin(), reached.end(), v)) return false;
  }
  return true;
}

// Reference optimum: scan k down from the minimum query core until the
// query is together in G[C_k]; that component is the answer.
CommunityResult LevelScanCommunity(const Graph& g,
                                   const std::vector<uint32_t>& core,
                                   const std::vector<VertexId>& q) {
  CommunityResult out;
  uint32_t k = core[q.front()];
  for (VertexId v : q) k = std::min(k, core[v]);
  for (;; --k) {
    if (TogetherAt(g, core, k, q)) {
      out.feasible = true;
      out.core_level = k;
      out.vertices = ReachInCore(g, core, k, q.front());
      return out;
    }
    if (k == 0) return out;
  }
}

TEST(Community, EmptyQueryIsInfeasible) {
  CommunityResult r = DistanceCocktailParty(Path(4), {}, 2);
  EXPECT_FALSE(r.feasible);
}

TEST(Community, SingleQueryVertexGetsItsBestCore) {
  Graph g = gen::PaperFigure1();
  // Querying a hub (v4, id 3) should return the (6,2)-core.
  CommunityResult r = DistanceCocktailParty(g, {3}, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.core_level, 6u);
  EXPECT_EQ(r.vertices.size(), 10u);
  EXPECT_EQ(r.min_h_degree, 6u);
  // A repeated query id changes nothing.
  CommunityResult dup = DistanceCocktailParty(g, {3, 3}, 2);
  EXPECT_TRUE(dup.feasible);
  EXPECT_EQ(dup.core_level, r.core_level);
  EXPECT_EQ(dup.vertices, r.vertices);
  EXPECT_EQ(dup.min_h_degree, r.min_h_degree);
}

TEST(Community, QueryAcrossCoresDropsToSharedLevel) {
  Graph g = gen::PaperFigure1();
  // v1 (id 0) has core 4: querying {v1, v4} must return a level-4 group.
  CommunityResult r = DistanceCocktailParty(g, {0, 3}, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.core_level, 4u);
  // All 13 vertices are in the (4,2)-core and connected.
  EXPECT_EQ(r.vertices.size(), 13u);
}

TEST(Community, DisconnectedQueryIsInfeasible) {
  GraphBuilder b(7);  // two paths and the isolated vertex 6
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  CommunityResult r = DistanceCocktailParty(g, {0, 5}, 2);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.vertices.empty());

  // The snapshot answers from its hierarchy: a query spanning two roots is
  // infeasible, and an isolated core-0 vertex is its own community.
  HCoreIndex index(Graph(g), IndexOptions(2));
  auto snap = index.snapshot();
  EXPECT_FALSE(snap->Community({0, 6}, 2).feasible);
  EXPECT_FALSE(snap->Community({0, 5}, 1).feasible);
  CommunityResult isolated = snap->Community({6}, 2);
  ASSERT_TRUE(isolated.feasible);
  EXPECT_EQ(isolated.core_level, 0u);
  EXPECT_EQ(isolated.vertices, std::vector<VertexId>{6});
  EXPECT_EQ(isolated.min_h_degree, 0u);
}

TEST(Community, ResultContainsQueryAndIsConnected) {
  Rng rng(31);
  Graph g = gen::Connectify(gen::ErdosRenyiGnp(80, 0.05, &rng), &rng);
  CommunityResult r = DistanceCocktailParty(g, {3, 40, 77}, 2);
  ASSERT_TRUE(r.feasible);
  VertexMask mask(g.num_vertices(), r.vertices);
  for (VertexId q : {3u, 40u, 77u}) EXPECT_TRUE(mask.IsAlive(q));
  EXPECT_EQ(ComputeConnectedComponents(g, mask).num_components, 1u);
  EXPECT_EQ(MinHDegree(g, r.vertices, 2), r.min_h_degree);
}

class CommunityProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(CommunityProperty, MatchesBruteForceObjective) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec small = spec;
  small.n = 12;
  Graph g = MakeRandomGraph(small);
  // Use two query vertices from the same component to keep it feasible.
  std::vector<VertexId> comp = LargestComponent(g);
  if (comp.size() < 2) return;
  std::vector<VertexId> query{comp.front(), comp.back()};
  CommunityResult r = DistanceCocktailParty(g, query, h);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.min_h_degree, BruteForceCocktail(g, query, h))
      << small.Name() << " h=" << h;
}

// Graphs of a few hundred vertices, several random feasible queries each:
// the free function and the snapshot both match the level-scan reference,
// the objective is the answer's own minimum h-degree and equals its level,
// and the query no longer holds together one level deeper.
TEST_P(CommunityProperty, MatchesLevelScanReferenceOnLargerGraphs) {
  const auto& [spec, h] = GetParam();
  RandomGraphSpec large = spec;
  large.n = 300;
  Graph g = MakeRandomGraph(large);
  const std::vector<uint32_t> core = FreshCores(g, h);
  HCoreIndex index(Graph(g), IndexOptions(h));
  auto snap = index.snapshot();
  std::vector<VertexId> comp = LargestComponent(g);
  ASSERT_FALSE(comp.empty());
  Rng rng(large.seed * 31 + static_cast<uint64_t>(h));
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<VertexId> query;
    const uint32_t size = 1 + rng.NextIndex(4);
    for (uint32_t i = 0; i < size; ++i) {
      query.push_back(comp[rng.NextIndex(static_cast<uint32_t>(comp.size()))]);
    }
    const CommunityResult want = LevelScanCommunity(g, core, query);
    ASSERT_TRUE(want.feasible);
    const std::string where = large.Name() + " h=" + std::to_string(h) +
                              " trial=" + std::to_string(trial);
    for (const CommunityResult& got :
         {DistanceCocktailParty(g, query, h), snap->Community(query, h)}) {
      ASSERT_TRUE(got.feasible) << where;
      EXPECT_EQ(got.core_level, want.core_level) << where;
      EXPECT_EQ(got.vertices, want.vertices) << where;
      EXPECT_EQ(MinHDegree(g, got.vertices, h), got.min_h_degree) << where;
      EXPECT_EQ(got.min_h_degree, got.core_level) << where;
    }
    EXPECT_FALSE(TogetherAt(g, core, want.core_level + 1, query)) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CommunityProperty,
    ::testing::Combine(::testing::ValuesIn(hcore::testing::Corpus(12, 2)),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hcore
