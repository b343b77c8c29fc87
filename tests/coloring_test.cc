// Tests for distance-h coloring: validity, the Theorem-1 bound
// χ_h(G) <= 1 + Ĉ_h(G), and known chromatic values on toy graphs.

#include "apps/coloring.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/kh_core.h"
#include "engine/peeling_engine.h"
#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::IsValidDistanceHColoring;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

// The literal Theorem-1 construction: a greedy coloring in the reverse
// (k,h)-core peel order (smallest h-degree last, every surviving neighbor's
// h-degree recomputed after each removal). The peel guarantees few
// *induced-subgraph* h-neighbors at removal time, but coloring conflicts are
// measured with *full-graph* distances, which can exceed that count: on small
// sparse random graphs this greedy occasionally needs 1 + Ĉ_h(G) + 1 colors.
// DistanceHColoring therefore colors in the reverse Algorithm-5 order, whose
// bound is proven.
struct RecordPeelOrder : PeelPolicyBase {
  explicit RecordPeelOrder(std::vector<VertexId>* order) : order(order) {}
  void OnPeeled(VertexId v, uint32_t) { order->push_back(v); }
  std::vector<VertexId>* order;
};

std::vector<VertexId> HCorePeelOrder(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order;
  VertexMask alive(n, true);
  BoundedBfs bfs;
  PeelingEngine engine(g, h, &alive, &bfs, n);
  engine.SeedAliveWithHDegrees();
  RecordPeelOrder policy(&order);
  engine.Peel(0, n, policy);
  return order;
}

// Greedy coloring in reverse `order`; each vertex takes the least color no
// vertex within full-graph distance h holds yet.
std::vector<uint32_t> GreedyReverseColoring(const Graph& g, int h,
                                            const std::vector<VertexId>& order) {
  constexpr uint32_t kUncolored = ~uint32_t{0};
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> color(n, kUncolored);
  VertexMask all(n, true);
  BoundedBfs bfs(n);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::vector<uint8_t> used(n + 1, 0);
    bfs.Run(g, all, *it, h, [&](VertexId u, int) {
      if (color[u] != kUncolored) used[color[u]] = 1;
    });
    uint32_t c = 0;
    while (used[c]) ++c;
    color[*it] = c;
  }
  return color;
}

TEST(Coloring, EmptyAndSingleton) {
  EXPECT_EQ(DistanceHColoring(Graph(), 2).num_colors, 0u);
  GraphBuilder b(1);
  ColoringResult r = DistanceHColoring(b.Build(), 2);
  EXPECT_EQ(r.num_colors, 1u);
}

TEST(Coloring, PathH1NeedsTwoColors) {
  Graph g = Path(10);
  ColoringResult r = DistanceHColoring(g, 1);
  EXPECT_TRUE(IsValidDistanceHColoring(g, 1, r.color));
  EXPECT_EQ(r.num_colors, 2u);
}

TEST(Coloring, PathH2NeedsThreeColors) {
  Graph g = Path(10);
  ColoringResult r = DistanceHColoring(g, 2);
  EXPECT_TRUE(IsValidDistanceHColoring(g, 2, r.color));
  EXPECT_EQ(r.num_colors, 3u);
}

TEST(Coloring, StarH2IsFullyRainbow) {
  // All vertices of a star are pairwise within distance 2.
  Graph g = gen::Star(7);
  ColoringResult r = DistanceHColoring(g, 2);
  EXPECT_TRUE(IsValidDistanceHColoring(g, 2, r.color));
  EXPECT_EQ(r.num_colors, 7u);
}

TEST(Coloring, CompleteGraphAnyH) {
  Graph g = gen::Complete(6);
  for (int h = 1; h <= 3; ++h) {
    ColoringResult r = DistanceHColoring(g, h);
    EXPECT_EQ(r.num_colors, 6u);
    EXPECT_TRUE(IsValidDistanceHColoring(g, h, r.color));
  }
}

TEST(Coloring, InvalidColoringIsDetected) {
  Graph g = Path(3);
  std::vector<uint32_t> same(3, 0);
  EXPECT_FALSE(IsValidDistanceHColoring(g, 1, same));
  EXPECT_TRUE(IsValidDistanceHColoring(g, 1, {0, 1, 0}));
  EXPECT_FALSE(IsValidDistanceHColoring(g, 2, {0, 1, 0}));
}

TEST(Coloring, HCorePeelOrderIsPermutation) {
  Rng rng(9);
  Graph g = gen::BarabasiAlbert(120, 3, &rng);
  std::vector<VertexId> order = HCorePeelOrder(g, 2);
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  for (VertexId v : order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

class ColoringProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(ColoringProperty, ValidAndWithinProvableBound) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  ColoringResult r = DistanceHColoring(g, h);
  EXPECT_TRUE(IsValidDistanceHColoring(g, h, r.color));
  // The default (reverse Algorithm-5 peel) order guarantees <= 1 + max UB.
  EXPECT_LE(r.num_colors, r.bound) << spec.Name() << " h=" << h;
}

TEST_P(ColoringProperty, HCorePeelOrderIsValidAndRarelyExceedsTheorem1) {
  // The literal Theorem-1 construction is always a valid coloring; its size
  // is usually within 1 + Ĉ_h(G) but not guaranteed (see HCorePeelOrder),
  // so this checks validity plus a slack of one color, which holds on this
  // deterministic corpus.
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> color =
      GreedyReverseColoring(g, h, HCorePeelOrder(g, h));
  EXPECT_TRUE(IsValidDistanceHColoring(g, h, color));
  const uint32_t num_colors =
      color.empty() ? 0 : *std::max_element(color.begin(), color.end()) + 1;
  KhCoreOptions opts;
  opts.h = h;
  KhCoreResult cores = KhCoreDecomposition(g, opts);
  EXPECT_LE(num_colors, cores.degeneracy + 2) << spec.Name() << " h=" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ColoringProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(40, 2)),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hcore
