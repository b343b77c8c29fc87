// Tests for the classic (h = 1) Batagelj–Zaveršnik core decomposition.

#include "core/classic_core.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/kh_core.h"
#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

using ::hcore::testing::BruteForceKhCore;
using ::hcore::testing::CompleteBipartite;
using ::hcore::testing::Corpus;
using ::hcore::testing::Cycle;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(ClassicCore, EmptyGraph) {
  ClassicCoreResult r = ClassicCoreDecomposition(Graph());
  EXPECT_TRUE(r.core.empty());
  EXPECT_EQ(r.degeneracy, 0u);
}

TEST(ClassicCore, IsolatedVertices) {
  GraphBuilder b(4);
  ClassicCoreResult r = ClassicCoreDecomposition(b.Build());
  EXPECT_EQ(r.core, (std::vector<uint32_t>{0, 0, 0, 0}));
}

TEST(ClassicCore, PathIsOneCore) {
  ClassicCoreResult r = ClassicCoreDecomposition(Path(10));
  for (uint32_t c : r.core) EXPECT_EQ(c, 1u);
  EXPECT_EQ(r.degeneracy, 1u);
}

TEST(ClassicCore, CycleIsTwoCore) {
  ClassicCoreResult r = ClassicCoreDecomposition(Cycle(10));
  for (uint32_t c : r.core) EXPECT_EQ(c, 2u);
}

TEST(ClassicCore, CompleteGraph) {
  ClassicCoreResult r = ClassicCoreDecomposition(gen::Complete(6));
  for (uint32_t c : r.core) EXPECT_EQ(c, 5u);
}

TEST(ClassicCore, StarIsOneCore) {
  ClassicCoreResult r = ClassicCoreDecomposition(gen::Star(8));
  for (uint32_t c : r.core) EXPECT_EQ(c, 1u);
}

TEST(ClassicCore, CompleteBipartiteCoreIsMinSide) {
  ClassicCoreResult r = ClassicCoreDecomposition(CompleteBipartite(3, 7));
  for (uint32_t c : r.core) EXPECT_EQ(c, 3u);
}

TEST(ClassicCore, TriangleWithPendant) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);  // pendant
  ClassicCoreResult r = ClassicCoreDecomposition(b.Build());
  EXPECT_EQ(r.core, (std::vector<uint32_t>{2, 2, 2, 1}));
  EXPECT_EQ(r.degeneracy, 2u);
}

TEST(ClassicCore, H1FastPathAllocatesNoBfsScratch) {
  // The h = 1 peel walks adjacency directly; the BoundedBfs it carries must
  // never grow its O(n) scratch (lazy allocation — the ROADMAP "Lazy BFS
  // scratch" item).
  Rng rng(7);
  Graph g = gen::BarabasiAlbert(2000, 3, &rng);
  const uint64_t before = BoundedBfs::total_scratch_allocations();
  ClassicCoreResult r = ClassicCoreDecomposition(g);
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before);
  EXPECT_GT(r.degeneracy, 0u);

  // Sanity check the counter is live at all: one h = 2 traversal must
  // grow exactly one scratch instance.
  BoundedBfs bfs;
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before);
  VertexMask alive(g.num_vertices(), true);
  (void)bfs.HDegree(g, alive, 0, 2);
  EXPECT_EQ(BoundedBfs::total_scratch_allocations(), before + 1);
}

TEST(ClassicCore, PeelOrderIsAPermutationEndingInTheDeepestCore) {
  Rng rng(3);
  Graph g = gen::BarabasiAlbert(100, 3, &rng);
  ClassicCoreResult r = ClassicCoreDecomposition(g);
  ASSERT_EQ(r.peel_order.size(), g.num_vertices());
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  for (VertexId v : r.peel_order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
  EXPECT_EQ(r.core[r.peel_order.back()], r.degeneracy);
}

class ClassicCoreProperty : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(ClassicCoreProperty, MatchesBruteForceH1) {
  Graph g = MakeRandomGraph(GetParam());
  ClassicCoreResult r = ClassicCoreDecomposition(g);
  EXPECT_EQ(r.core, BruteForceKhCore(g, 1));
}

TEST_P(ClassicCoreProperty, CoreIndexBoundedByDegree) {
  Graph g = MakeRandomGraph(GetParam());
  ClassicCoreResult r = ClassicCoreDecomposition(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(r.core[v], g.degree(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ClassicCoreProperty,
                         ::testing::ValuesIn(Corpus(64, 3)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

}  // namespace
}  // namespace hcore
