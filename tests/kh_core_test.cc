// Correctness tests for the (k,h)-core decomposition: the paper's Figure-1
// example, deterministic toy graphs with hand-derived decompositions, and a
// property sweep comparing every algorithm variant against the definition-
// level brute force across a corpus of random graphs.

#include "core/kh_core.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

using ::hcore::testing::BruteForceKhCore;
using ::hcore::testing::Corpus;
using ::hcore::testing::Cycle;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

KhCoreResult Decompose(const Graph& g, int h, KhCoreAlgorithm alg,
                       int partition = 0) {
  KhCoreOptions opts;
  opts.h = h;
  opts.algorithm = alg;
  opts.partition_size = partition;
  return KhCoreDecomposition(g, opts);
}

// ---------------------------------------------------------------------------
// Paper Figure 1 / Examples 1, 3, 5.
// ---------------------------------------------------------------------------

TEST(KhCorePaperExample, ClassicDecompositionPutsAllVerticesInCore2) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 1, KhCoreAlgorithm::kAuto);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.core[v], 2u) << "vertex " << v + 1;
  }
  EXPECT_EQ(r.degeneracy, 2u);
}

TEST(KhCorePaperExample, H2DecompositionMatchesFigure1) {
  Graph g = gen::PaperFigure1();
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 2, alg);
    SCOPED_TRACE(ToString(alg));
    EXPECT_EQ(r.core[0], 4u);  // v1
    EXPECT_EQ(r.core[1], 5u);  // v2
    EXPECT_EQ(r.core[2], 5u);  // v3
    for (VertexId v = 3; v < 13; ++v) {
      EXPECT_EQ(r.core[v], 6u) << "vertex " << v + 1;
    }
    EXPECT_EQ(r.degeneracy, 6u);
  }
}

TEST(KhCorePaperExample, PowerGraphDecompositionOverestimates) {
  // Example 2: the classic core decomposition of G^2 gives vertices 2 and 3
  // core index 6, while their true (k,2)-core index is 5.
  Graph g = gen::PaperFigure1();
  Graph g2 = PowerGraph(g, 2);
  ClassicCoreResult power = ClassicCoreDecomposition(g2);
  EXPECT_EQ(power.core[1], 6u);
  EXPECT_EQ(power.core[2], 6u);
  KhCoreResult truth = Decompose(g, 2, KhCoreAlgorithm::kLb);
  EXPECT_EQ(truth.core[1], 5u);
  EXPECT_EQ(truth.core[2], 5u);
  // And the power-graph index upper-bounds the true index everywhere.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(power.core[v], truth.core[v]);
  }
}

TEST(KhCorePaperExample, BruteForceAgreesOnFigure1) {
  Graph g = gen::PaperFigure1();
  std::vector<uint32_t> expect = BruteForceKhCore(g, 2);
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_EQ(r.core, expect);
}

// ---------------------------------------------------------------------------
// Deterministic toy graphs.
// ---------------------------------------------------------------------------

TEST(KhCoreToyGraphs, EmptyGraph) {
  Graph g;
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 2, alg);
    EXPECT_TRUE(r.core.empty());
    EXPECT_EQ(r.degeneracy, 0u);
  }
}

TEST(KhCoreToyGraphs, SingletonAndIsolatedVertices) {
  GraphBuilder b(3);  // three isolated vertices
  Graph g = b.Build();
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 3, alg);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{0, 0, 0})) << ToString(alg);
  }
}

TEST(KhCoreToyGraphs, EmptyOneVertexAndTriangleMatchBruteForce) {
  // The triangle comes with two isolated vertices.
  GraphBuilder triangle(5);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const std::vector<Graph> graphs = {Graph(), GraphBuilder(1).Build(),
                                     triangle.Build()};
  for (const Graph& g : graphs) {
    for (int h : {1, 2, 3}) {
      const std::vector<uint32_t> expected = BruteForceKhCore(g, h);
      for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                                  KhCoreAlgorithm::kLbUb}) {
        EXPECT_EQ(Decompose(g, h, alg).core, expected)
            << "n=" << g.num_vertices() << " h=" << h
            << " algo=" << ToString(alg);
      }
    }
  }
}

TEST(KhCoreToyGraphs, CompleteGraphEveryHIsNMinus1) {
  Graph g = gen::Complete(7);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLbUb);
    for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(r.core[v], 6u);
  }
}

TEST(KhCoreToyGraphs, PathHCore) {
  // On a long path, every vertex sees at most 2h others within distance h;
  // interior vertices see exactly 2h but peeling the ends erodes the path,
  // so the (k,h)-core index is h for every vertex: the whole path survives
  // at k = h (end vertices have h neighbors), and nothing survives at h+1.
  Graph g = Path(30);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);
    std::vector<uint32_t> expect = BruteForceKhCore(g, h);
    EXPECT_EQ(r.core, expect) << "h=" << h;
    EXPECT_EQ(r.degeneracy, static_cast<uint32_t>(h)) << "h=" << h;
  }
}

TEST(KhCoreToyGraphs, CycleHCoreIsUniform2h) {
  // On a cycle of length > 2h+1 every vertex has exactly 2h vertices within
  // distance h and symmetry keeps that true under peeling.
  Graph g = Cycle(20);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLbUb);
    for (VertexId v = 0; v < 20; ++v) {
      EXPECT_EQ(r.core[v], static_cast<uint32_t>(2 * h)) << "h=" << h;
    }
  }
}

TEST(KhCoreToyGraphs, StarH2IsComplete) {
  // In a star, every leaf reaches every other leaf within 2 hops, so the
  // (k,2)-core of a star on n vertices is the whole star with index n-1.
  Graph g = gen::Star(9);
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLb);
  for (VertexId v = 0; v < 9; ++v) EXPECT_EQ(r.core[v], 8u);
}

TEST(KhCoreToyGraphs, H1MatchesClassicOnCorpus) {
  for (const auto& spec : Corpus(60, 2)) {
    Graph g = MakeRandomGraph(spec);
    KhCoreResult kh = Decompose(g, 1, KhCoreAlgorithm::kAuto);
    ClassicCoreResult classic = ClassicCoreDecomposition(g);
    EXPECT_EQ(kh.core, classic.core) << spec.Name();
  }
}

// ---------------------------------------------------------------------------
// Result helpers.
// ---------------------------------------------------------------------------

TEST(KhCoreResult, CoreSizesAreNonIncreasingAndAnchored) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLb);
  std::vector<uint32_t> sizes = r.CoreSizes();
  ASSERT_EQ(sizes.size(), r.degeneracy + 1);
  EXPECT_EQ(sizes[0], g.num_vertices());
  for (size_t k = 1; k < sizes.size(); ++k) EXPECT_LE(sizes[k], sizes[k - 1]);
  EXPECT_EQ(sizes[6], 10u);  // the (6,2)-core of Figure 1
  EXPECT_EQ(sizes[5], 12u);
  EXPECT_EQ(sizes[4], 13u);
}

TEST(KhCoreResult, DistinctCoresAndVertices) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_EQ(r.NumDistinctCores(), 3u);  // {4, 5, 6}
  EXPECT_EQ(r.MaxCoreVertices().size(), 10u);
  EXPECT_EQ(r.CoreVertices(0).size(), 13u);
  EXPECT_EQ(r.CoreVertices(5).size(), 12u);
}

// ---------------------------------------------------------------------------
// Property sweep: all algorithms x corpus x h agree with brute force.
// ---------------------------------------------------------------------------

class KhCoreProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(KhCoreProperty, AllAlgorithmsMatchBruteForce) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> expect = BruteForceKhCore(g, h);
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, h, alg);
    EXPECT_EQ(r.core, expect) << ToString(alg);
  }
}

TEST_P(KhCoreProperty, ContainmentAndUniquenessInvariants) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);

  // Property 2 (containment) is implied by core indexes; verify that each
  // core satisfies the definition: every member of C_k has h-degree >= k
  // inside G[C_k].
  BoundedBfs bfs(g.num_vertices());
  for (uint32_t k = 1; k <= r.degeneracy; ++k) {
    std::vector<VertexId> members = r.CoreVertices(k);
    VertexMask alive(g.num_vertices(), members);
    for (VertexId v : members) {
      EXPECT_GE(bfs.HDegree(g, alive, v, h), k)
          << "vertex " << v << " in C_" << k;
    }
  }

  // Maximality: the set {v : core(v) = k-1} must not extend C_k, i.e. each
  // such vertex has h-degree < k in G[C_k ∪ {v}].
  for (uint32_t k = 1; k <= r.degeneracy; ++k) {
    VertexMask alive(g.num_vertices(), r.CoreVertices(k));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (r.core[v] != k - 1) continue;
      alive.Revive(v);
      EXPECT_LT(bfs.HDegree(g, alive, v, h), k) << "vertex " << v;
      alive.Kill(v);
    }
  }
}

TEST_P(KhCoreProperty, PowerGraphCoreIsUpperBound) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);
  ClassicCoreResult power = ClassicCoreDecomposition(PowerGraph(g, h));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(power.core[v], r.core[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, KhCoreProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(48, 2)),
                       ::testing::Values(2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Option handling: partition sizes, ablated bounds — all must produce
// identical decompositions.
// ---------------------------------------------------------------------------

class KhCoreOptionsProperty : public ::testing::TestWithParam<RandomGraphSpec> {
};

TEST_P(KhCoreOptionsProperty, PartitionSizeDoesNotChangeResult) {
  // h-LB demotes neighbors closer than h back to their lazy seed key, and
  // h-LB+UB does so in every partition, where settled vertices also skip
  // ImproveLB. Both must match the brute force at every partition size.
  Graph g = MakeRandomGraph(GetParam());
  for (int h : {2, 3, 4}) {
    const std::vector<uint32_t> expect = BruteForceKhCore(g, h);
    EXPECT_EQ(Decompose(g, h, KhCoreAlgorithm::kLb).core, expect)
        << "h-LB h=" << h;
    for (int s : {0, 1, 2, 3, 5, 1000}) {
      EXPECT_EQ(Decompose(g, h, KhCoreAlgorithm::kLbUb, s).core, expect)
          << "h-LB+UB h=" << h << " S=" << s;
    }
  }
}

TEST_P(KhCoreOptionsProperty, AblatedBoundsDoNotChangeResult) {
  Graph g = MakeRandomGraph(GetParam());
  KhCoreResult base = Decompose(g, 3, KhCoreAlgorithm::kBz);
  for (LowerBoundMode lb :
       {LowerBoundMode::kNone, LowerBoundMode::kLb1, LowerBoundMode::kLb2}) {
    for (UpperBoundMode ub :
         {UpperBoundMode::kHDegree, UpperBoundMode::kPowerGraph}) {
      KhCoreOptions opts;
      opts.h = 3;
      opts.algorithm = KhCoreAlgorithm::kLbUb;
      opts.lower_bound = lb;
      opts.upper_bound = ub;
      KhCoreResult r = KhCoreDecomposition(g, opts);
      EXPECT_EQ(base.core, r.core)
          << "lb=" << static_cast<int>(lb) << " ub=" << static_cast<int>(ub);
    }
    KhCoreOptions opts;
    opts.h = 3;
    opts.algorithm = KhCoreAlgorithm::kLb;
    opts.lower_bound = lb;
    KhCoreResult r = KhCoreDecomposition(g, opts);
    EXPECT_EQ(base.core, r.core) << "h-LB lb=" << static_cast<int>(lb);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, KhCoreOptionsProperty,
                         ::testing::ValuesIn(Corpus(48, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

// ---------------------------------------------------------------------------
// Ball-bounded demotion: a neighbor at distance d < h of a removed vertex w
// drops its key by |B(w, h - d)| instead of taking a BFS. Hub-heavy graphs
// (one removal near a hub lowers many keys at once) and small-world graphs
// (rings whose shortcuts give short, overlapping balls) stress the bound.
// ---------------------------------------------------------------------------

TEST(KhCoreBallBound, LbAndLbUbMatchBruteForceOnHubAndSmallWorldGraphs) {
  int graphs = 0;
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    Rng rng(seed * 104729 + 17);
    const VertexId n = 12 + static_cast<VertexId>(seed % 37);
    const Graph hubs =
        seed % 2 == 0
            ? gen::BarabasiAlbert(n, 1 + static_cast<uint32_t>(seed % 4), &rng)
            : gen::StarHeavySocial(n, 2 * n, 2, 0.4, &rng);
    const Graph small_world = gen::WattsStrogatz(
        n, 1 + static_cast<uint32_t>(seed % 3), 0.1 * (seed % 5), &rng);
    for (const Graph* g : {&hubs, &small_world}) {
      ++graphs;
      for (int h : {2, 3, 4}) {
        const std::vector<uint32_t> expect = BruteForceKhCore(*g, h);
        for (KhCoreAlgorithm alg :
             {KhCoreAlgorithm::kLb, KhCoreAlgorithm::kLbUb}) {
          ASSERT_EQ(Decompose(*g, h, alg).core, expect)
              << ToString(alg) << " seed=" << seed << " n=" << n
              << " h=" << h << (g == &hubs ? " hubs" : " small-world");
        }
      }
    }
  }
  EXPECT_GE(graphs, 300);
}

TEST(KhCoreAuto, RunsLbAtEveryH) {
  Rng rng(11);
  const Graph g = gen::BarabasiAlbert(300, 3, &rng);
  for (int h : {2, 3, 4, 5}) {
    const KhCoreResult chosen = Decompose(g, h, KhCoreAlgorithm::kAuto);
    EXPECT_EQ(chosen.core, Decompose(g, h, KhCoreAlgorithm::kBz).core);
    EXPECT_EQ(chosen.stats.partitions, 0u) << "h=" << h;  // no h-LB+UB
  }
}

// ---------------------------------------------------------------------------
// Stats: the bounds must pay off in traversal volume.
// ---------------------------------------------------------------------------

TEST(KhCoreStats, LowerBoundReducesVisitsOnDenseGraph) {
  Rng rng(7);
  Graph g = gen::BarabasiAlbert(400, 6, &rng);
  KhCoreResult bz = Decompose(g, 2, KhCoreAlgorithm::kBz);
  KhCoreResult lb = Decompose(g, 2, KhCoreAlgorithm::kLb);
  EXPECT_LT(lb.stats.visited_vertices, bz.stats.visited_vertices);
  EXPECT_GT(bz.stats.visited_vertices, 0u);
}

TEST(KhCoreStats, CountersArePopulated) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_GT(r.stats.visited_vertices, 0u);
  EXPECT_GT(r.stats.hdegree_computations, 0u);
  EXPECT_GE(r.stats.partitions, 1u);
  EXPECT_GE(r.stats.seconds, 0.0);
}

}  // namespace
}  // namespace hcore
