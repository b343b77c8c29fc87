// Thread-count differential for the (k,h)-core decomposition. The peel
// loop is sequential and worker threads only compute h-degree batches
// (bounds, ImproveLB, recomputations), so every algorithm × h ∈ {1,2,3} ×
// threads {1,2,4,8} over BA, clustered, disconnected, and star graphs must
// reproduce the 1-thread run exactly: the same cores and the same Table-3
// counters. Degenerate graphs are checked against BruteForceKhCore. The
// TSan CI leg runs this suite.

#include <gtest/gtest.h>

#include "core/kh_core.h"
#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

/// The differential's graph families: BA (hubs), clustered (planted
/// partition), disconnected (planted partition with zero inter-community
/// probability), star (one hub, extreme degree skew).
Graph FamilyGraph(const std::string& family, uint32_t n, uint64_t seed) {
  Rng rng(seed * 7717 + 5);
  if (family == "ba") return gen::BarabasiAlbert(n, 3, &rng);
  if (family == "clustered") {
    return gen::PlantedPartition(4, n / 4, 0.4, 0.05, &rng);
  }
  if (family == "disconnected") {
    return gen::PlantedPartition(4, n / 4, 0.4, 0.0, &rng);
  }
  if (family == "star") return gen::Star(n);
  return Graph();
}

const std::vector<const char*> kFamilies = {"ba", "clustered", "disconnected",
                                            "star"};
const std::vector<KhCoreAlgorithm> kAlgorithms = {
    KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb, KhCoreAlgorithm::kLbUb};

Graph FromEdges(VertexId n,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return b.Build();
}

KhCoreResult Decompose(const Graph& g, int h, KhCoreAlgorithm algorithm,
                       int threads) {
  KhCoreOptions opts;
  opts.h = h;
  opts.algorithm = algorithm;
  opts.num_threads = threads;
  return KhCoreDecomposition(g, opts);
}

TEST(ThreadCount, MatchesOneThreadForAllAlgorithmsAndFamilies) {
  for (const char* family : kFamilies) {
    const Graph g = FamilyGraph(family, 240, 7);
    for (int h : {1, 2, 3}) {
      for (KhCoreAlgorithm algo : kAlgorithms) {
        const KhCoreResult one = Decompose(g, h, algo, 1);
        for (int threads : {2, 4, 8}) {
          const KhCoreResult many = Decompose(g, h, algo, threads);
          const std::string where = std::string(family) +
                                    " h=" + std::to_string(h) +
                                    " algo=" + ToString(algo) +
                                    " threads=" + std::to_string(threads);
          ASSERT_EQ(many.core, one.core) << where;
          EXPECT_EQ(many.degeneracy, one.degeneracy) << where;
          EXPECT_EQ(many.stats.pops, one.stats.pops) << where;
          EXPECT_EQ(many.stats.hdegree_computations,
                    one.stats.hdegree_computations)
              << where;
          EXPECT_EQ(many.stats.decrement_updates, one.stats.decrement_updates)
              << where;
          EXPECT_EQ(many.stats.visited_vertices, one.stats.visited_vertices)
              << where;
          EXPECT_EQ(many.stats.partitions, one.stats.partitions) << where;
        }
      }
    }
  }
}

TEST(ThreadCount, EmptyOneVertexAndTriangleMatchBruteForce) {
  // The triangle comes with two isolated vertices.
  const std::vector<Graph> graphs = {Graph(), FromEdges(1, {}),
                                     FromEdges(5, {{0, 1}, {1, 2}, {0, 2}})};
  for (const Graph& g : graphs) {
    for (int h : {1, 2, 3}) {
      const std::vector<uint32_t> expected = BruteForceKhCore(g, h);
      for (KhCoreAlgorithm algo : kAlgorithms) {
        for (int threads : {1, 4}) {
          EXPECT_EQ(Decompose(g, h, algo, threads).core, expected)
              << "n=" << g.num_vertices() << " h=" << h
              << " algo=" << ToString(algo) << " threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hcore
