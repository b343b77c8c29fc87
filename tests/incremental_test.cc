// Hand-picked single edits through HCoreIndex::InsertEdge/DeleteEdge, the
// write path of dynamic (k,h)-core maintenance: every edit must report
// whether it had an effect and leave every level equal to a fresh run.
// Random edit sequences live in incremental_fuzz_test.

#include "index/hcore_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::BruteForceKhCore;
using ::hcore::testing::Cycle;
using ::hcore::testing::FreshCores;
using ::hcore::testing::IndexOptions;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(HCoreIndex, SingleEditConveniencesMatchFreshRuns) {
  // Hand-picked single edits: each returns whether it had an effect, and
  // every level must equal a fresh run afterwards.
  struct Edit {
    bool insert;
    VertexId u, v;
    bool applies;
  };
  struct Case {
    const char* name;
    Graph graph;
    std::vector<Edit> edits;
  };
  const std::vector<Case> cases = {
      // Figure 1: adding v1-v4 (ids 0-3) raises v1's 2-degree, deleting it
      // restores the graph; present and absent edges are no-ops.
      {"figure1-promote",
       gen::PaperFigure1(),
       {{true, 0, 1, false},
        {true, 0, 3, true},
        {false, 0, 3, true},
        {false, 0, 3, false}}},
      // v4-v5 breaks the cross pairing and demotes cores.
      {"figure1-demote", gen::PaperFigure1(), {{false, 3, 4, true}}},
      // Self-loop, present edge, absent edge, out-of-range delete.
      {"cycle5-degenerate",
       Cycle(5),
       {{true, 2, 2, false},
        {true, 0, 1, false},
        {false, 0, 2, false},
        {false, 0, 99, false}}},
      // An insert past the vertex count grows the graph (4..6 appear).
      {"path4-growth", Path(4), {{true, 3, 6, true}}},
  };
  for (const Case& c : cases) {
    HCoreIndex index(c.graph, IndexOptions(2));
    for (const Edit& e : c.edits) {
      EXPECT_EQ(e.insert ? index.InsertEdge(e.u, e.v)
                         : index.DeleteEdge(e.u, e.v),
                e.applies)
          << c.name << " " << e.u << "-" << e.v;
      const auto snap = index.snapshot();
      for (int h = 1; h <= 2; ++h) {
        EXPECT_EQ(snap->Cores(h), FreshCores(snap->graph(), h))
            << c.name << " " << e.u << "-" << e.v << " h=" << h;
      }
    }
  }

  // Spot values behind the cases above.
  HCoreIndex figure1(gen::PaperFigure1(), IndexOptions(2));
  EXPECT_EQ(figure1.snapshot()->CoreOf(0, 2), 4u);
  ASSERT_TRUE(figure1.InsertEdge(0, 3));
  EXPECT_GE(figure1.snapshot()->CoreOf(0, 2), 4u);
  HCoreIndex path(Path(4), IndexOptions(2));
  ASSERT_TRUE(path.InsertEdge(3, 6));
  EXPECT_EQ(path.snapshot()->graph().num_vertices(), 7u);
  EXPECT_EQ(path.snapshot()->CoreOf(5, 2), 0u);  // isolated newcomer
}

TEST(HCoreIndex, InsertPastTheFirstTrialBoundStaysLocalized) {
  // The localized insert first re-peels below the bound min(old cores of
  // the endpoints) + 1. On this tree, linking vertex 0 (core_2 6) to vertex
  // 5 (core_2 2) lifts both endpoints to core_2 7, past that bound, so the
  // trial escalates (the h-degree gate then runs) before it certifies.
  const Graph g = MakeRandomGraph(RandomGraphSpec{"tree", 24, 2});
  constexpr VertexId kU = 0;
  constexpr VertexId kV = 5;
  ASSERT_FALSE(g.HasEdge(kU, kV));
  const std::vector<uint32_t> old_core = BruteForceKhCore(g, 2);
  const uint32_t first_bound = std::min(old_core[kU], old_core[kV]) + 1;

  HCoreIndex index(g, IndexOptions(3));
  const HCoreIndexStats before = index.stats();
  ASSERT_TRUE(index.InsertEdge(kU, kV));
  const HCoreIndexStats after = index.stats();
  // Every level, h = 2 included, is served by the localized path.
  EXPECT_EQ(after.localized_updates - before.localized_updates, 3u);
  EXPECT_EQ(after.fallback_repeels, before.fallback_repeels);

  const auto snap = index.snapshot();
  for (int h = 1; h <= 3; ++h) {
    EXPECT_EQ(snap->Cores(h), BruteForceKhCore(snap->graph(), h))
        << "h=" << h;
  }
  EXPECT_GT(std::min(snap->CoreOf(kU, 2), snap->CoreOf(kV, 2)), first_bound);
}

}  // namespace
}  // namespace hcore
