// Tests for bounded BFS, h-degree computation, distance helpers, and the
// h-club / h-clique predicates.

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"
#include "traversal/distances.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::Cycle;
using ::hcore::testing::IsHClique;
using ::hcore::testing::IsHClub;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(BoundedBfs, ScratchMaterializesLazilyAndIsReused) {
  Graph g = Cycle(8);
  VertexMask alive(8, true);
  const uint64_t before = BoundedBfs::total_scratch_allocations();
  BoundedBfs bfs;
  // BoundedBfs(0) allocates nothing (the h = 1 fast paths rely on this).
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before);
  EXPECT_EQ(bfs.HDegree(g, alive, 0, 2), 4u);
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before + 1);
  // Subsequent traversals reuse the grown scratch.
  EXPECT_EQ(bfs.HDegree(g, alive, 1, 2), 4u);
  Neighborhood nbhd;
  EXPECT_EQ(bfs.CollectNeighborhood(g, alive, 2, 1, &nbhd), 2u);
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before + 1);
  EXPECT_GT(bfs.total_visited(), 0u);
}

TEST(BoundedBfs, PathDepthTruncation) {
  Graph g = Path(10);
  BoundedBfs bfs(10);
  VertexMask alive(10, true);
  // From vertex 0, depth h reaches exactly vertices 1..h.
  for (int h = 1; h <= 5; ++h) {
    Neighborhood nbhd;
    bfs.CollectNeighborhood(g, alive, 0, h, &nbhd);
    ASSERT_EQ(nbhd.size(), static_cast<uint32_t>(h));
    for (int i = 0; i <= h; ++i) {
      EXPECT_EQ(nbhd.order[i], static_cast<VertexId>(i));
      EXPECT_EQ(nbhd.BallSize(i), static_cast<uint32_t>(i + 1));
    }
  }
}

TEST(BoundedBfs, RespectsAliveMask) {
  Graph g = Path(5);  // 0-1-2-3-4
  BoundedBfs bfs(5);
  VertexMask alive(5, true);
  alive.Kill(2);  // break the path
  EXPECT_EQ(bfs.HDegree(g, alive, 0, 4), 1u);  // only vertex 1 reachable
  EXPECT_EQ(bfs.HDegree(g, alive, 4, 4), 1u);  // only vertex 3
}

TEST(BoundedBfs, SourceExpandedEvenWhenDead) {
  // Peeling enumerates N(v,h) for a vertex being removed: the source's own
  // alive flag must not matter.
  Graph g = gen::Star(6);
  BoundedBfs bfs(6);
  VertexMask alive(6, true);
  alive.Kill(0);  // hub marked dead
  EXPECT_EQ(bfs.HDegree(g, alive, 0, 1), 5u);
}

TEST(BoundedBfs, VisitCountAccumulates) {
  Graph g = gen::Complete(5);
  BoundedBfs bfs(5);
  VertexMask alive(5, true);
  EXPECT_EQ(bfs.total_visited(), 0u);
  bfs.HDegree(g, alive, 0, 1);
  EXPECT_EQ(bfs.total_visited(), 4u);
  bfs.HDegree(g, alive, 1, 1);
  EXPECT_EQ(bfs.total_visited(), 8u);
  bfs.ResetStats();
  EXPECT_EQ(bfs.total_visited(), 0u);
}

TEST(BoundedBfs, HZeroVisitsNothing) {
  Graph g = gen::Complete(4);
  BoundedBfs bfs(4);
  VertexMask alive(4, true);
  EXPECT_EQ(bfs.HDegree(g, alive, 0, 0), 0u);
  Neighborhood nbhd;
  EXPECT_EQ(bfs.CollectNeighborhood(g, alive, 0, 0, &nbhd), 0u);
  EXPECT_EQ(nbhd.order, (std::vector<VertexId>{0}));
  EXPECT_EQ(nbhd.BallSize(0), 1u);
  EXPECT_EQ(bfs.total_visited(), 0u);
}

TEST(BoundedBfs, StampWraparoundKeepsResultsCorrect) {
  // Regression: on stamp overflow the scratch arrays are re-zeroed. Run a
  // few traversals, fast-forward the stamp to the edge of overflow, grow
  // the buffers with a larger graph, and check results straddling the wrap
  // — stale marks/distances from the pre-wrap runs must not leak in.
  Graph small = Path(6);
  BoundedBfs bfs(6);
  VertexMask small_alive(6, true);
  EXPECT_EQ(bfs.HDegree(small, small_alive, 0, 3), 3u);  // populate scratch

  bfs.set_stamp_for_testing(0xFFFFFFFEu);
  // Stamp 0xFFFFFFFF: one run right at the maximum value.
  EXPECT_EQ(bfs.HDegree(small, small_alive, 2, 2), 4u);
  // Next run wraps to 1 after the refill; grow the buffers first so freshly
  // resized entries and re-zeroed entries coexist.
  Graph big = Cycle(12);
  VertexMask big_alive(12, true);
  EXPECT_EQ(bfs.HDegree(big, big_alive, 0, 2), 4u);
  EXPECT_EQ(bfs.HDegree(big, big_alive, 6, 3), 6u);
  // And the old graph still reads correctly post-wrap.
  EXPECT_EQ(bfs.HDegree(small, small_alive, 0, 5), 5u);
}

class HDegreeProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(HDegreeProperty, MatchesPowerGraphDegree) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  Graph gh = PowerGraph(g, h);
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(bfs.HDegree(g, alive, v, h), gh.degree(v)) << "v=" << v;
  }
}

TEST_P(HDegreeProperty, ComputeAllAliveSkipsDeadVertices) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  VertexMask alive(n, true);
  // Kill a third of the vertices to exercise masked traversal.
  for (VertexId v = 0; v < n; v += 3) alive.Kill(v);
  constexpr uint32_t kUntouched = 0xDEADu;
  std::vector<uint32_t> all(n, kUntouched);
  BoundedBfs bfs;
  ComputeAllAlive(g, alive, h, &bfs, &all);
  BoundedBfs single;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t want =
        alive.IsAlive(v) ? single.HDegree(g, alive, v, h) : kUntouched;
    EXPECT_EQ(all[v], want) << "v=" << v;
  }
  EXPECT_EQ(bfs.total_visited(), single.total_visited());
}

TEST_P(HDegreeProperty, MonotoneInH) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_LE(bfs.HDegree(g, alive, v, h), bfs.HDegree(g, alive, v, h + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HDegreeProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(50, 1)),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

/// Reference order for the level-synchronous kernel: a plain FIFO BFS with
/// a distance array, truncated at depth h, source first.
std::vector<VertexId> FifoBfsOrder(const Graph& g, const VertexMask& alive,
                                   VertexId src, int h) {
  std::vector<int> dist(g.num_vertices(), -1);
  std::vector<VertexId> order{src};
  dist[src] = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    const VertexId v = order[head];
    if (dist[v] == h) continue;
    for (VertexId u : g.neighbors(v)) {
      if (dist[u] >= 0 || !alive.IsAlive(u)) continue;
      dist[u] = dist[v] + 1;
      order.push_back(u);
    }
  }
  return order;
}

class KernelVsDistances
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(KernelVsDistances, BallDistancesOrderAndLevelsMatchBfsDistances) {
  const auto& [spec, h] = GetParam();
  const Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  Rng rng(spec.seed * 17 + static_cast<uint64_t>(h));
  BoundedBfs bfs;
  Neighborhood nbhd;
  for (int trial = 0; trial < 3; ++trial) {
    // Trial 0 keeps every vertex; later trials kill about a third.
    VertexMask alive(n, true);
    if (trial > 0) {
      for (VertexId v = 0; v < n; ++v) {
        if (rng.NextBool(0.3)) alive.Kill(v);
      }
    }
    for (VertexId src = 0; src < n; ++src) {
      if (!alive.IsAlive(src)) continue;
      const std::vector<uint32_t> dist = BfsDistances(g, alive, src);
      std::vector<VertexId> ball;
      std::vector<uint32_t> ball_size(h + 1, 1);
      for (VertexId v = 0; v < n; ++v) {
        if (v == src || dist[v] == kUnreachable) continue;
        for (int r = static_cast<int>(dist[v]); r <= h; ++r) ++ball_size[r];
        if (dist[v] <= static_cast<uint32_t>(h)) ball.push_back(v);
      }
      const uint32_t size = static_cast<uint32_t>(ball.size());
      ASSERT_EQ(bfs.HDegree(g, alive, src, h), size) << "src=" << src;
      ASSERT_EQ(bfs.CollectNeighborhood(g, alive, src, h, &nbhd), size);
      ASSERT_EQ(nbhd.h(), h);
      ASSERT_EQ(nbhd.size(), size);
      // The ball as a set.
      std::vector<VertexId> got(nbhd.order.begin() + 1, nbhd.order.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, ball) << "src=" << src;
      // Each distance, and the level boundaries.
      nbhd.ForEach([&](VertexId u, int d) {
        EXPECT_EQ(static_cast<uint32_t>(d), dist[u]) << "u=" << u;
      });
      for (int r = 0; r <= h; ++r) {
        EXPECT_EQ(nbhd.BallSize(r), ball_size[r]) << "r=" << r;
      }
      // BFS order, and the visitor of Run() sees the same sequence.
      EXPECT_EQ(nbhd.order, FifoBfsOrder(g, alive, src, h)) << "src=" << src;
      std::vector<std::pair<VertexId, int>> visited;
      bfs.Run(g, alive, src, h,
              [&](VertexId u, int d) { visited.emplace_back(u, d); });
      std::vector<std::pair<VertexId, int>> collected;
      nbhd.ForEach([&](VertexId u, int d) { collected.emplace_back(u, d); });
      EXPECT_EQ(visited, collected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, KernelVsDistances,
    ::testing::Combine(::testing::ValuesIn(Corpus(50, 1)),
                       ::testing::Values(0, 1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Distances, PathDistances) {
  Graph g = Path(6);
  std::vector<uint32_t> d = BfsDistances(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
  EXPECT_EQ(Distance(g, 1, 4), 3u);
  EXPECT_EQ(Distance(g, 4, 4), 0u);
}

TEST(Distances, DisconnectedIsUnreachable) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  EXPECT_EQ(Distance(g, 0, 3), kUnreachable);
  std::vector<uint32_t> d = BfsDistances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Distances, DiameterOfPathAndCycle) {
  Rng rng(5);
  EXPECT_EQ(ExactDiameter(Path(10)), 9u);
  EXPECT_EQ(ExactDiameter(Cycle(10)), 5u);
  EXPECT_EQ(ExactDiameter(gen::Complete(5)), 1u);
  // The double-sweep estimate is exact on paths and never overestimates.
  EXPECT_EQ(EstimateDiameter(Path(10), 3, &rng), 9u);
  EXPECT_LE(EstimateDiameter(Cycle(10), 3, &rng), 5u);
}

TEST(HClubPredicate, StarIsTwoClubButNotOneClub) {
  Graph g = gen::Star(5);
  std::vector<VertexId> all{0, 1, 2, 3, 4};
  EXPECT_TRUE(IsHClub(g, all, 2));
  EXPECT_FALSE(IsHClub(g, all, 1));
}

TEST(HClubPredicate, InducedDistanceMattersForClubs) {
  // Classic example: leaves of a star form a 2-clique (via the hub) but not
  // a 2-club (the induced subgraph has no edges).
  Graph g = gen::Star(5);
  std::vector<VertexId> leaves{1, 2, 3, 4};
  EXPECT_TRUE(IsHClique(g, leaves, 2));
  EXPECT_FALSE(IsHClub(g, leaves, 2));
}

TEST(HClubPredicate, SingletonsAndEmptyAreAlwaysClubs) {
  Graph g = Path(3);
  EXPECT_TRUE(IsHClub(g, {}, 1));
  EXPECT_TRUE(IsHClub(g, {2}, 1));
  EXPECT_TRUE(IsHClique(g, {}, 1));
}

}  // namespace
}  // namespace hcore
