// Randomized differential tests ("fuzz" suites): every core data structure
// is driven with long random operation sequences and compared against a
// trivially-correct reference model.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"
#include "traversal/distances.h"
#include "util/bucket_queue.h"
#include "util/rng.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

// ---------------------------------------------------------------------------
// BucketQueue vs a std::multimap-based reference priority structure.
// ---------------------------------------------------------------------------

class BucketQueueFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BucketQueueFuzz, MatchesReferenceModel) {
  const uint32_t n = 64;
  const uint32_t max_key = 32;
  Rng rng(GetParam());
  BucketQueue queue(n, max_key);
  std::map<uint32_t, uint32_t> key_of;  // reference: vertex -> key

  for (int step = 0; step < 4000; ++step) {
    const uint32_t op = rng.NextIndex(100);
    if (op < 40) {  // insert a random absent vertex
      uint32_t v = rng.NextIndex(n);
      if (key_of.count(v)) continue;
      uint32_t k = rng.NextIndex(max_key + 1);
      queue.Insert(v, k);
      key_of[v] = k;
    } else if (op < 65) {  // move a random present vertex
      if (key_of.empty()) continue;
      auto it = key_of.begin();
      std::advance(it, rng.NextIndex(static_cast<uint32_t>(key_of.size())));
      uint32_t k = rng.NextIndex(max_key + 1);
      queue.Move(it->first, k);
      it->second = k;
    } else if (op < 80) {  // remove a random present vertex
      if (key_of.empty()) continue;
      auto it = key_of.begin();
      std::advance(it, rng.NextIndex(static_cast<uint32_t>(key_of.size())));
      queue.Remove(it->first);
      key_of.erase(it);
    } else if (op < 95) {  // pop from a random non-empty bucket
      std::set<uint32_t> keys;
      for (const auto& [v, k] : key_of) keys.insert(k);
      if (keys.empty()) continue;
      auto kit = keys.begin();
      std::advance(kit, rng.NextIndex(static_cast<uint32_t>(keys.size())));
      uint32_t v = queue.PopFront(*kit);
      ASSERT_TRUE(key_of.count(v));
      ASSERT_EQ(key_of[v], *kit);
      key_of.erase(v);
    } else {  // full-state audit
      ASSERT_EQ(queue.size(), key_of.size());
      for (uint32_t v = 0; v < n; ++v) {
        ASSERT_EQ(queue.Contains(v), key_of.count(v) > 0) << "v=" << v;
        if (key_of.count(v)) {
          ASSERT_EQ(queue.KeyOf(v), key_of[v]);
        }
      }
      for (uint32_t k = 0; k <= max_key; ++k) {
        bool ref_empty = true;
        for (const auto& [v, key] : key_of) ref_empty &= (key != k);
        ASSERT_EQ(queue.BucketEmpty(k), ref_empty) << "k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketQueueFuzz, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// BoundedBfs vs full BFS distances, under random alive masks.
// ---------------------------------------------------------------------------

class BoundedBfsFuzz : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(BoundedBfsFuzz, AgreesWithMaskedBfsDistances) {
  Graph g = MakeRandomGraph(GetParam());
  const VertexId n = g.num_vertices();
  Rng rng(GetParam().seed * 31 + 5);
  BoundedBfs bfs(n);
  for (int trial = 0; trial < 12; ++trial) {
    // Random alive mask keeping ~70%.
    VertexMask alive(n, false);
    for (VertexId v = 0; v < n; ++v) {
      if (rng.NextBool(0.7)) alive.Revive(v);
    }
    VertexId src = rng.NextIndex(n);
    alive.Revive(src);
    std::vector<uint32_t> ref = BfsDistances(g, alive, src);
    for (int h = 1; h <= 4; ++h) {
      Neighborhood nbhd;
      bfs.CollectNeighborhood(g, alive, src, h, &nbhd);
      // Every reported neighbor must match the reference distance, and the
      // count must equal the number of vertices with ref distance in [1,h].
      uint32_t expect = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (v != src && ref[v] != kUnreachable && ref[v] <= static_cast<uint32_t>(h)) {
          ++expect;
        }
      }
      ASSERT_EQ(nbhd.size(), expect) << "h=" << h;
      nbhd.ForEach([&](VertexId v, int d) {
        EXPECT_EQ(static_cast<uint32_t>(d), ref[v]) << "v=" << v;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, BoundedBfsFuzz,
                         ::testing::ValuesIn(Corpus(50, 2)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

// ---------------------------------------------------------------------------
// GraphBuilder vs a set-of-pairs reference under random edge streams.
// ---------------------------------------------------------------------------

class GraphBuilderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphBuilderFuzz, NormalizationMatchesReferenceSet) {
  Rng rng(GetParam() * 97 + 11);
  const VertexId n = 30;
  GraphBuilder builder(n);
  std::set<std::pair<VertexId, VertexId>> ref;
  const int edges = 300;
  for (int i = 0; i < edges; ++i) {
    VertexId u = rng.NextIndex(n);
    VertexId v = rng.NextIndex(n);
    builder.AddEdge(u, v);
    if (u != v) ref.insert({std::min(u, v), std::max(u, v)});
  }
  Graph g = builder.Build();
  ASSERT_EQ(g.num_edges(), ref.size());
  for (const auto& [u, v] : ref) {
    ASSERT_TRUE(g.HasEdge(u, v));
    ASSERT_TRUE(g.HasEdge(v, u));
  }
  // Degree sums must match twice the edge count.
  uint64_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) degree_sum += g.degree(v);
  ASSERT_EQ(degree_sum, 2 * ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphBuilderFuzz,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// InducedSubgraph vs explicit reference construction.
// ---------------------------------------------------------------------------

class InducedSubgraphFuzz : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(InducedSubgraphFuzz, EdgesExactlyThoseWithBothEndpointsKept) {
  Graph g = MakeRandomGraph(GetParam());
  Rng rng(GetParam().seed + 1234);
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.NextBool(0.5)) keep.push_back(v);
  }
  auto [sub, map] = g.InducedSubgraph(keep);
  ASSERT_EQ(sub.num_vertices(), keep.size());
  uint64_t expected_edges = 0;
  for (const auto& [u, v] : g.Edges()) {
    bool ku = map[u] != kInvalidVertex;
    bool kv = map[v] != kInvalidVertex;
    if (ku && kv) {
      ++expected_edges;
      ASSERT_TRUE(sub.HasEdge(map[u], map[v]));
    }
  }
  ASSERT_EQ(sub.num_edges(), expected_edges);
}

INSTANTIATE_TEST_SUITE_P(Corpus, InducedSubgraphFuzz,
                         ::testing::ValuesIn(Corpus(40, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

}  // namespace
}  // namespace hcore
