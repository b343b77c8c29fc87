// Tests for the LB1/LB2/UB/LB3 bounds (Observations 1-2, Algorithm 5,
// Algorithm 6 / Property 3), including the concrete values the paper derives
// for the Figure-1 graph in Examples 3 and 5.

#include "core/bounds.h"

#include <algorithm>
#include <queue>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::BruteForceKhCore;
using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

TEST(BoundsPaperExample, Example3Lb1Lb2Values) {
  // Example 3 (h = 2): LB1(v1) = LB1(v2) = 2, LB1(v4) = 5, and
  // LB2(v2) = max(LB1(v2), LB1(v4)) = 5 = core(v2).
  Graph g = gen::PaperFigure1();
  BoundedBfs bfs(g.num_vertices());
  std::vector<uint32_t> lb1 = ComputeLB1(g, 2, &bfs);
  EXPECT_EQ(lb1[0], 2u);  // v1
  EXPECT_EQ(lb1[1], 2u);  // v2
  EXPECT_EQ(lb1[3], 5u);  // v4
  std::vector<uint32_t> lb2 = ComputeLB2(g, 2, lb1);
  EXPECT_EQ(lb2[1], 5u);  // v2
  EXPECT_EQ(lb2[0], 2u);  // v1 stays at 2 (its neighbors have LB1 = 2)
  // Example 5: B[5] holds v2..v13 after LB2 bucketing.
  for (VertexId v = 1; v < 13; ++v) EXPECT_EQ(lb2[v], 5u) << "v" << v + 1;
}

TEST(BoundsPaperExample, Example5UpperBoundValues) {
  // Example 5 (h = 2): UB(v1) = 4 and UB(vi) = 6 for i >= 2.
  Graph g = gen::PaperFigure1();
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  std::vector<uint32_t> hdeg;
  ComputeAllAlive(g, alive, 2, &bfs, &hdeg);
  std::vector<uint32_t> ub = ComputePowerGraphUpperBound(g, 2, hdeg, &bfs);
  EXPECT_EQ(ub[0], 4u);
  for (VertexId v = 1; v < 13; ++v) EXPECT_EQ(ub[v], 6u) << "v" << v + 1;
}

TEST(BoundsPaperExample, ImproveLbCleansV6Partition) {
  // Example 5: running ImproveLB on the k_min = 6 partition (vertices
  // v2..v13) removes v2 and v3 because their 2-degree in that subgraph is 5.
  Graph g = gen::PaperFigure1();
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  alive.Kill(0);  // v1 has UB 4 < 6
  std::vector<uint32_t> lb2(g.num_vertices(), 5);
  const std::vector<uint8_t> none(g.num_vertices(), 0);
  ImproveLbResult r = ImproveLB(g, 2, 6, &alive, lb2, none, 7, &bfs);
  EXPECT_EQ(r.computed, 12u);
  EXPECT_EQ(r.removed, 2u);
  EXPECT_FALSE(alive.IsAlive(1));  // v2 cleaned
  EXPECT_FALSE(alive.IsAlive(2));  // v3 cleaned
  for (VertexId v = 3; v < 13; ++v) {
    EXPECT_TRUE(alive.IsAlive(v)) << "v" << v + 1;
  }
}

TEST(BoundsImproveLb, SettledCandidatesEnterLb3AtTheFloor) {
  // K_6 at h = 2: every h-degree and core index is 5. With every vertex but
  // 0 settled at floor 3, only vertex 0 is measured, nothing is cleaned, and
  // LB3 is min(5, 3) = 3, not the h-degree 5 of the one measured vertex.
  Graph g = gen::Complete(6);
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  std::vector<uint8_t> settled(g.num_vertices(), 1);
  settled[0] = 0;
  const std::vector<uint32_t> zeros(g.num_vertices(), 0);
  ImproveLbResult r = ImproveLB(g, 2, 1, &alive, zeros, settled, 3, &bfs);
  EXPECT_EQ(r.computed, 1u);
  EXPECT_EQ(r.removed, 0u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(r.lb3[v], 3u);
}

class BoundsProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(BoundsProperty, SandwichLb1Lb2CoreUbHdeg) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  BoundedBfs bfs(n);
  VertexMask alive(n, true);
  std::vector<uint32_t> hdeg;
  ComputeAllAlive(g, alive, h, &bfs, &hdeg);
  std::vector<uint32_t> lb1 = ComputeLB1(g, h, &bfs);
  std::vector<uint32_t> lb2 = ComputeLB2(g, h, lb1);
  std::vector<uint32_t> ub = ComputePowerGraphUpperBound(g, h, hdeg, &bfs);
  std::vector<uint32_t> core = BruteForceKhCore(g, h);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_LE(lb1[v], lb2[v]) << "v=" << v;
    EXPECT_LE(lb2[v], core[v]) << "v=" << v;
    EXPECT_LE(core[v], ub[v]) << "v=" << v;
    EXPECT_LE(ub[v], hdeg[v]) << "v=" << v;
  }
}

TEST_P(BoundsProperty, Lb1DominatesClassicCore) {
  // LB1(v) = deg^{⌊h/2⌋}(v) >= deg(v) >= core_1(v) for every h >= 2. At
  // h = 2 this makes core_{h-1} a useless extra lower bound: max(LB2,
  // core_1) is LB2 itself, which is why the multi-h sweep runs each level
  // from its own bounds.
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  BoundedBfs bfs(g.num_vertices());
  const std::vector<uint32_t> lb1 = ComputeLB1(g, h, &bfs);
  const std::vector<uint32_t> core1 = ClassicCoreDecomposition(g).core;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(lb1[v], core1[v]) << "v=" << v;
  }
}

TEST_P(BoundsProperty, UpperBoundPeelOrderDominatesFullDistanceConflicts) {
  // Algorithm 5 peels with *induced* h-neighborhood enumeration, so it can
  // be slightly looser than the classic core index of a materialized G^h —
  // but its optimistic degree always dominates the count of alive
  // full-distance-h neighbors, which is what the coloring application
  // relies on. Verify by replaying the peel: when vertex v is removed from
  // bucket k, the number of not-yet-removed vertices within full-graph
  // distance h of v must be <= k... equivalently, the suffix of the peel
  // order starting at v must contain <= ub[v] full-distance-h neighbors.
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  BoundedBfs bfs(n);
  VertexMask alive(n, true);
  std::vector<uint32_t> hdeg;
  ComputeAllAlive(g, alive, h, &bfs, &hdeg);
  std::vector<VertexId> peel;
  std::vector<uint32_t> ub =
      ComputePowerGraphUpperBound(g, h, hdeg, &bfs, &peel);
  ASSERT_EQ(peel.size(), n);
  uint32_t max_ub = 0;
  for (uint32_t x : ub) max_ub = std::max(max_ub, x);

  Graph gh = PowerGraph(g, h);  // full-distance-h adjacency
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[peel[i]] = i;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t later_neighbors = 0;
    for (VertexId u : gh.neighbors(v)) {
      if (position[u] > position[v]) ++later_neighbors;
    }
    EXPECT_LE(later_neighbors, max_ub) << "v=" << v;
  }
}

TEST_P(BoundsProperty, ImproveLbNeverRemovesTrueCoreMembers) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> core = BruteForceKhCore(g, h);
  uint32_t degeneracy = 0;
  for (uint32_t c : core) degeneracy = std::max(degeneracy, c);
  BoundedBfs bfs(n);
  std::vector<uint32_t> zeros(n, 0);
  const std::vector<uint8_t> none(n, 0);
  for (uint32_t k : {degeneracy, degeneracy / 2}) {
    if (k == 0) continue;
    VertexMask alive(n, true);
    ImproveLbResult r = ImproveLB(g, h, k, &alive, zeros, none, k, &bfs);
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] >= k) {
        EXPECT_TRUE(alive.IsAlive(v))
            << "cleaning dropped a (k,h)-core member, v=" << v << " k=" << k;
      }
    }
    // LB3 must stay below the true core index for surviving vertices.
    for (VertexId v = 0; v < n; ++v) {
      if (alive.IsAlive(v) && core[v] >= k) {
        EXPECT_LE(r.lb3[v], core[v]);
      }
    }
  }
}

TEST_P(BoundsProperty, ImproveLbSkipsSettledVerticesWithoutChangingCleaning) {
  // The h-LB+UB schedule cleans V[k_min] = {v : UB(v) >= k_min} and passes
  // the vertices a higher partition settled (core > k_max) with the floor
  // k_max + 1. Against the unmasked call the removed set must be identical,
  // LB3 no higher and still at most the core index, and only the unsettled
  // candidates may be measured.
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> core = BruteForceKhCore(g, h);
  uint32_t degeneracy = 0;
  for (uint32_t c : core) degeneracy = std::max(degeneracy, c);
  BoundedBfs bfs(n);
  VertexMask all(n, true);
  std::vector<uint32_t> hdeg;
  ComputeAllAlive(g, all, h, &bfs, &hdeg);
  const std::vector<uint32_t> ub =
      ComputePowerGraphUpperBound(g, h, hdeg, &bfs);
  const std::vector<uint32_t> lb2 =
      ComputeLB2(g, h, ComputeLB1(g, h, &bfs));
  const std::vector<uint8_t> none(n, 0);
  for (uint32_t k_max : {degeneracy / 2, degeneracy > 0 ? degeneracy - 1 : 0}) {
    std::vector<uint8_t> settled(n, 0);
    for (VertexId v = 0; v < n; ++v) settled[v] = core[v] > k_max;
    for (uint32_t k_min : {1u, k_max / 2 + 1, k_max}) {
      if (k_min > k_max) continue;
      VertexMask candidates(n, false);
      uint64_t unsettled = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (ub[v] < k_min) continue;
        candidates.Revive(v);
        unsettled += !settled[v];
      }
      VertexMask plain_alive = candidates;
      bfs.ResetStats();
      ImproveLbResult plain =
          ImproveLB(g, h, k_min, &plain_alive, lb2, none, k_max + 1, &bfs);
      const uint64_t plain_visits = bfs.total_visited();
      VertexMask masked_alive = candidates;
      bfs.ResetStats();
      ImproveLbResult masked = ImproveLB(g, h, k_min, &masked_alive, lb2,
                                         settled, k_max + 1, &bfs);
      const uint64_t masked_visits = bfs.total_visited();
      const std::string at =
          " k_min=" + std::to_string(k_min) + " k_max=" + std::to_string(k_max);
      EXPECT_EQ(masked.removed, plain.removed) << at;
      EXPECT_EQ(masked.computed, unsettled) << at;
      EXPECT_EQ(plain.computed, candidates.num_alive()) << at;
      EXPECT_LE(masked_visits, plain_visits) << at;
      const bool any_settled = unsettled < candidates.num_alive();
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(masked_alive.IsAlive(v), plain_alive.IsAlive(v))
            << "v=" << v << at;
        if (!masked_alive.IsAlive(v)) continue;
        EXPECT_LE(masked.lb3[v], plain.lb3[v]) << "v=" << v << at;
        EXPECT_LE(masked.lb3[v], core[v]) << "v=" << v << at;
        // Settled candidates enter LB3's minimum at the floor.
        if (any_settled) {
          EXPECT_LE(masked.lb3[v], std::max(lb2[v], k_max + 1))
              << "v=" << v << at;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BoundsProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(40, 2)),
                       ::testing::Values(2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BoundsLb2, SweepsEqualPlainBfsBallMaximum) {
  // LB2 is computed by ⌈h/2⌉ neighborhood-max sweeps; check it against the
  // definition, a plain BFS over each closed ⌈h/2⌉-ball.
  for (const RandomGraphSpec& spec : Corpus(60, 2)) {
    Graph g = MakeRandomGraph(spec);
    const VertexId n = g.num_vertices();
    BoundedBfs bfs(n);
    for (int h = 2; h <= 5; ++h) {
      std::vector<uint32_t> lb1 = ComputeLB1(g, h, &bfs);
      std::vector<uint32_t> lb2 = ComputeLB2(g, h, lb1);
      const int radius = (h + 1) / 2;
      for (VertexId v = 0; v < n; ++v) {
        std::vector<int> dist(n, -1);
        std::queue<VertexId> frontier;
        dist[v] = 0;
        frontier.push(v);
        uint32_t expect = lb1[v];
        while (!frontier.empty()) {
          const VertexId x = frontier.front();
          frontier.pop();
          expect = std::max(expect, lb1[x]);
          if (dist[x] == radius) continue;
          for (VertexId y : g.neighbors(x)) {
            if (dist[y] >= 0) continue;
            dist[y] = dist[x] + 1;
            frontier.push(y);
          }
        }
        EXPECT_EQ(lb2[v], expect) << spec.Name() << " h=" << h << " v=" << v;
      }
    }
  }
}

TEST(BoundsQuality, Lb2TighterThanLb1OnSocialGraph) {
  Rng rng(11);
  Graph g = gen::BarabasiAlbert(300, 4, &rng);
  BoundedBfs bfs(g.num_vertices());
  std::vector<uint32_t> lb1 = ComputeLB1(g, 2, &bfs);
  std::vector<uint32_t> lb2 = ComputeLB2(g, 2, lb1);
  uint64_t sum1 = 0, sum2 = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sum1 += lb1[v];
    sum2 += lb2[v];
  }
  EXPECT_GT(sum2, sum1);  // strictly tighter in aggregate
}

}  // namespace
}  // namespace hcore
