// Tests for the CSR Graph, GraphBuilder normalization, induced subgraphs,
// and edge-list I/O.

#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::Cycle;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in reverse
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self-loop
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphBuilder, GrowsVertexCountFromEdges) {
  GraphBuilder b;
  b.AddEdge(5, 9);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderDeathTest, RejectsTheInvalidVertexSentinel) {
  // v + 1 would wrap to 0, so the vertex count would never cover the edge.
  GraphBuilder b;
  EXPECT_DEATH(b.AddEdge(0, kInvalidVertex), "kInvalidVertex");
  EXPECT_DEATH(b.AddEdge(kInvalidVertex, 3), "kInvalidVertex");
}

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(2, 1);
  Graph g = b.Build();
  auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  for (size_t i = 1; i < nb.size(); ++i) EXPECT_LT(nb[i - 1], nb[i]);
}

TEST(Graph, DegreeStatistics) {
  Graph g = gen::Star(5);
  EXPECT_EQ(g.MaxDegree(), 4u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 4 / 5);
  EXPECT_EQ(Graph().MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(Graph().AverageDegree(), 0.0);
}

TEST(Graph, EdgesListsEachEdgeOnce) {
  Graph g = Cycle(5);
  auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 5u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  Graph g = Cycle(6);  // 0-1-2-3-4-5-0
  auto [sub, map] = g.InducedSubgraph({0, 1, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 4u);
  EXPECT_EQ(sub.num_edges(), 3u);  // path 0-1-2-3; the wrap edge is cut
  EXPECT_EQ(map[5], kInvalidVertex);
  EXPECT_TRUE(sub.HasEdge(map[0], map[1]));
  EXPECT_FALSE(sub.HasEdge(map[0], map[3]));
}

TEST(Graph, InducedSubgraphDedupsInput) {
  Graph g = gen::Complete(4);
  auto [sub, map] = g.InducedSubgraph({2, 2, 0, 0});
  (void)map;
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);
}

class GraphRoundTrip : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(GraphRoundTrip, WriteParseRoundTripPreservesStructure) {
  Graph g = MakeRandomGraph(GetParam());
  std::string path =
      ::testing::TempDir() + "/hcore_roundtrip_" + GetParam().Name() + ".txt";
  ASSERT_TRUE(io::WriteEdgeList(g, path).ok());
  Result<Graph> r = io::ReadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = r.value();
  // Vertex ids are relabeled in first-appearance order, so compare
  // degree multisets and edge counts (isolated vertices are not written).
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Corpus, GraphRoundTrip,
                         ::testing::ValuesIn(Corpus(40, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

TEST(GraphIo, ParsesSnapFormatWithCommentsAndRelabeling) {
  const std::string text =
      "# comment line\n"
      "% another comment\n"
      "10 20\n"
      "20 30\n"
      "\n"
      "10 30\n"
      "30 40 7\n"      // a trailing weight column is ignored
      "40 10\r\n";   // so is a CRLF line ending
  Result<Graph> r = io::ParseEdgeList(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_vertices(), 4u);  // 10, 20, 30, 40 -> 0, 1, 2, 3
  EXPECT_EQ(r.value().num_edges(), 5u);
}

TEST(GraphIo, InternsSourceBeforeTarget) {
  // First-appearance order reads each line left to right: raw 0 is the
  // first id seen, so it becomes internal 0, the vertex of degree 2.
  Result<Graph> r = io::ParseEdgeList("0 1\n0 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().degree(0), 2u);
  EXPECT_EQ(r.value().degree(1), 1u);
  EXPECT_EQ(r.value().degree(2), 1u);
  Result<Graph> raw = io::ParseEdgeList("86 0\n36 1\n");
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw.value().HasEdge(0, 1));  // 86 -> 0, 0 -> 1
  EXPECT_TRUE(raw.value().HasEdge(2, 3));  // 36 -> 2, 1 -> 3
}

TEST(GraphIo, RejectsMalformedLines) {
  EXPECT_FALSE(io::ParseEdgeList("1 x\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("abc def\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("42\n").ok());
  // An id is a whole token: trailing garbage is not silently dropped, and
  // the error names the token that is bad.
  for (const char* text : {"1 2x\n", "1 2.5\n", "1 2x"}) {
    Result<Graph> r = io::ParseEdgeList(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.status().ToString().find("bad target id at line 1"),
              std::string::npos)
        << r.status().ToString();
  }
  Result<Graph> bad_source = io::ParseEdgeList("1 2\n3x 4\n");
  ASSERT_FALSE(bad_source.ok());
  EXPECT_NE(bad_source.status().ToString().find("bad source id at line 2"),
            std::string::npos)
      << bad_source.status().ToString();
  // An id past UINT64_MAX is rejected with its line number, not wrapped.
  Result<Graph> overflow =
      io::ParseEdgeList("1 2\n3 99999999999999999999999\n");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().ToString().find("line 2"), std::string::npos);
}

TEST(GraphIo, WriteDotProducesValidDotText) {
  Graph g = Path(3);
  std::string path = ::testing::TempDir() + "/hcore_dot_test.dot";
  std::vector<uint32_t> labels{7, 8, 9};
  ASSERT_TRUE(io::WriteDot(g, path, &labels).ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("graph hcore {"), std::string::npos);
  EXPECT_NE(text.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(text.find("1 -- 2;"), std::string::npos);
  EXPECT_NE(text.find("[label=\"0\\n7\"]"), std::string::npos);
  std::remove(path.c_str());
  // Size mismatch is rejected.
  std::vector<uint32_t> bad{1};
  EXPECT_FALSE(io::WriteDot(g, path, &bad).ok());
}

TEST(GraphIo, MissingFileIsNotFound) {
  Result<Graph> r = io::ReadEdgeList("/nonexistent/hcore-missing.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphWithEdits, SplicesInsertsAndDeletes) {
  Graph g = Cycle(5);
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(0, 2),
      EdgeEdit::Delete(3, 4),
      EdgeEdit::Insert(1, 1),  // self-loop: ignored
      EdgeEdit::Insert(0, 1),  // already present: no-op
      EdgeEdit::Delete(1, 3),  // absent: no-op
  };
  EdgeEditSummary summary;
  Graph next = g.WithEdits(edits, &summary);
  EXPECT_EQ(summary.inserts, 1u);
  EXPECT_EQ(summary.deletes, 1u);
  EXPECT_EQ(next.num_vertices(), 5u);
  EXPECT_EQ(next.num_edges(), 5u);
  EXPECT_TRUE(next.HasEdge(0, 2));
  EXPECT_FALSE(next.HasEdge(3, 4));
  EXPECT_TRUE(next.HasEdge(0, 1));
  // The input graph is untouched.
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(3, 4));
}

TEST(GraphWithEdits, LaterEditOfTheSameEdgeWins) {
  Graph g = Path(4);
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(0, 3),
      EdgeEdit::Delete(0, 3),  // cancels the insert above
      EdgeEdit::Delete(1, 2),
      EdgeEdit::Insert(2, 1),  // re-inserts (canonical order is normalized)
      EdgeEdit::Insert(1, 9),
      EdgeEdit::Delete(9, 1),  // cancelled out-of-range insert: no growth
  };
  EdgeEditSummary summary;
  Graph next = g.WithEdits(edits, &summary);
  EXPECT_EQ(summary.applied(), 0u);
  EXPECT_EQ(next.num_vertices(), g.num_vertices());
  EXPECT_EQ(next.Edges(), g.Edges());
}

TEST(GraphWithEdits, InsertGrowsTheVertexSet) {
  Graph g = Path(3);
  std::vector<EdgeEdit> edits = {EdgeEdit::Insert(2, 6)};
  Graph next = g.WithEdits(edits);
  EXPECT_EQ(next.num_vertices(), 7u);
  EXPECT_TRUE(next.HasEdge(2, 6));
  EXPECT_EQ(next.degree(5), 0u);
}

TEST(GraphWithEdits, OutOfRangeAndSentinelIdsAreSafeNoOps) {
  // Regression: growing inserts mixed with deletes naming vertices the
  // graph does not have (yet), plus the kInvalidVertex sentinel whose +1
  // wraps to 0, must all be clean no-ops — ids are guarded against old_n
  // before the edge set is consulted. Inserts at or past the growth cap
  // (n + kMaxGrowth) are rejected and counted.
  Graph g = Path(5);  // vertices 0..4
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(4, 9),                // grows the graph to 10
      EdgeEdit::Delete(7, 8),                // out of range: deletes nothing
      EdgeEdit::Delete(2, 9),                // 9 exists only after the batch
      EdgeEdit::Delete(11, 3),               // out of range either way
      EdgeEdit::Insert(3, kInvalidVertex),   // sentinel id: rejected
      EdgeEdit::Delete(kInvalidVertex, 0),   // sentinel id: dropped
      EdgeEdit::Insert(6, 12),               // superseded by ...
      EdgeEdit::Delete(6, 12),               // ... this delete: no growth
      EdgeEdit::Insert(1, 5 + Graph::kMaxGrowth),  // at the cap: rejected
  };
  EdgeEditSummary summary;
  const std::vector<EdgeEdit> effective =
      g.CanonicalEffectiveEdits(edits, &summary);
  Graph next = g.ApplyCanonicalEdits(effective);
  EXPECT_EQ(summary.inserts, 1u);
  EXPECT_EQ(summary.deletes, 0u);
  EXPECT_EQ(summary.rejected, 2u);
  ASSERT_EQ(effective.size(), 1u);
  EXPECT_TRUE(effective[0].insert);
  EXPECT_EQ(effective[0].u, 4u);
  EXPECT_EQ(effective[0].v, 9u);
  EXPECT_EQ(next.num_vertices(), 10u);
  EXPECT_EQ(next.num_edges(), g.num_edges() + 1);
  EXPECT_TRUE(next.HasEdge(4, 9));
}

TEST(GraphWithEdits, RandomBatchesMatchBuilderReference) {
  for (const RandomGraphSpec& spec : Corpus(60, 2)) {
    Graph g = MakeRandomGraph(spec);
    Rng rng(spec.seed * 389 + 7);
    for (int round = 0; round < 3; ++round) {
      const VertexId n = g.num_vertices();
      std::vector<EdgeEdit> edits;
      for (int i = 0; i < 12; ++i) {
        edits.push_back(EdgeEdit::Insert(rng.NextIndex(n), rng.NextIndex(n)));
      }
      // Inserts naming ids in [n, n + 3] grow the vertex set.
      for (int i = 0; i < 3; ++i) {
        edits.push_back(
            EdgeEdit::Insert(rng.NextIndex(n), n + rng.NextIndex(4)));
      }
      auto edges = g.Edges();
      for (int i = 0; i < 12 && !edges.empty(); ++i) {
        auto [u, v] =
            edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
        edits.push_back(EdgeEdit::Delete(u, v));
      }
      Graph spliced = g.WithEdits(edits);

      // Reference: replay the edit semantics (later edit wins) on an edge
      // set, then rebuild from scratch.
      std::set<std::pair<VertexId, VertexId>> edge_set(edges.begin(),
                                                       edges.end());
      VertexId new_n = n;
      for (const EdgeEdit& e : edits) {
        if (e.u == e.v) continue;
        auto key = std::minmax(e.u, e.v);
        if (e.insert) {
          edge_set.insert({key.first, key.second});
          new_n = std::max(new_n, key.second + 1);
        } else {
          edge_set.erase({key.first, key.second});
        }
      }
      GraphBuilder b(new_n);
      for (const auto& [u, v] : edge_set) b.AddEdge(u, v);
      Graph reference = b.Build();

      ASSERT_EQ(spliced.num_vertices(), reference.num_vertices())
          << spec.Name() << " round=" << round;
      ASSERT_EQ(spliced.Edges(), reference.Edges());
      g = std::move(spliced);
    }
  }
}

TEST(GraphStorage, EditedGraphLeavesTheOriginalIntact) {
  Rng rng(11);
  Graph g = gen::BarabasiAlbert(5000, 3, &rng);
  ASSERT_EQ(g.num_pages(), 1u);

  // An effective edit builds new storage; the original keeps answering
  // from its own.
  const VertexId u = 100, v = 4000;
  ASSERT_FALSE(g.HasEdge(u, v));
  const std::vector<EdgeEdit> one = {EdgeEdit::Insert(u, v)};
  Graph next = g.WithEdits(one);
  EXPECT_EQ(CountSharedPages(g, next), 0u);
  EXPECT_TRUE(next.HasEdge(u, v));
  EXPECT_FALSE(g.HasEdge(u, v));
  EXPECT_EQ(next.num_edges(), g.num_edges() + 1);

  // Deleting it again restores the adjacency (fresh storage, equal bytes).
  const std::vector<EdgeEdit> undo = {EdgeEdit::Delete(u, v)};
  Graph back = next.WithEdits(undo);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.Edges(), g.Edges());
  EXPECT_TRUE(next.HasEdge(u, v));
}

TEST(GraphStorage, NoOpBatchSharesStorageAndMemoryIsAccounted) {
  Rng rng(12);
  Graph g = gen::BarabasiAlbert(3000, 3, &rng);
  // Resident bytes cover the n+1 offsets and both half-edges of every
  // undirected edge.
  EXPECT_GE(g.MemoryBytes(),
            (uint64_t{g.num_vertices()} + 1) * sizeof(EdgeIndex) +
                g.num_edges() * 2 * sizeof(VertexId));
  EXPECT_EQ(Graph().MemoryBytes(), 0u);
  // A batch that inserts then deletes the same absent edge canonicalizes to
  // nothing: the result shares the storage, as a plain copy does.
  VertexId a = 7, b = 2500;
  while (g.HasEdge(a, b)) ++b;
  const std::vector<EdgeEdit> nop = {EdgeEdit::Insert(a, b),
                                     EdgeEdit::Delete(a, b)};
  Graph same = g.WithEdits(nop);
  EXPECT_EQ(CountSharedPages(g, same), g.num_pages());
  EXPECT_EQ(CountSharedPages(g, Graph(g)), g.num_pages());
  EXPECT_EQ(same.Edges(), g.Edges());
}

TEST(Connectivity, ComponentsOfDisjointPieces) {
  GraphBuilder b(7);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  // 5, 6 isolated
  Graph g = b.Build();
  ConnectedComponents cc = ComputeConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 4u);
  EXPECT_EQ(cc.component[0], cc.component[2]);
  EXPECT_NE(cc.component[0], cc.component[3]);
  EXPECT_EQ(LargestComponent(g).size(), 3u);
}

TEST(Connectivity, MaskedComponents) {
  Graph g = Path(5);
  VertexMask alive(5, true);
  alive.Kill(2);
  ConnectedComponents cc = ComputeConnectedComponents(g, alive);
  EXPECT_EQ(cc.num_components, 2u);
  EXPECT_EQ(cc.component[2], kInvalidComponent);
  EXPECT_EQ(cc.component[0], cc.component[1]);
  EXPECT_NE(cc.component[0], cc.component[3]);
}

}  // namespace
}  // namespace hcore
