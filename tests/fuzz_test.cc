// Randomized differential tests ("fuzz" suites): every core data structure
// is driven with long random operation sequences and compared against a
// trivially-correct reference model.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
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

// ---------------------------------------------------------------------------
// io::ParseEdgeList vs a reference reader written in a different style.
// ---------------------------------------------------------------------------

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

struct ReferenceEdgeList {
  VertexId num_vertices = 0;
  EdgeSet edges;
};

// Splits lines on '\n' and tokens on whitespace. A line whose first token
// starts with '#' or '%' is a comment; any other non-blank line needs two
// leading tokens that are whole decimal uint64 values (std::from_chars).
// Ids are numbered by first appearance, source before target. nullopt
// rejects the text.
std::optional<ReferenceEdgeList> ReferenceParse(const std::string& text) {
  ReferenceEdgeList out;
  std::map<uint64_t, VertexId> ids;
  auto id_of = [&ids](uint64_t raw) {
    return ids.emplace(raw, static_cast<VertexId>(ids.size())).first->second;
  };
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> tokens;
    std::string token;
    for (const char c : line + " ") {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!token.empty()) tokens.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
    if (tokens.empty() || tokens[0][0] == '#' || tokens[0][0] == '%') continue;
    uint64_t raw[2] = {0, 0};
    for (size_t t = 0; t < 2; ++t) {
      if (t >= tokens.size()) return std::nullopt;
      const char* last = tokens[t].data() + tokens[t].size();
      const auto [end, error] = std::from_chars(tokens[t].data(), last, raw[t]);
      if (error != std::errc() || end != last) return std::nullopt;
    }
    const VertexId u = id_of(raw[0]);
    const VertexId v = id_of(raw[1]);
    if (u != v) out.edges.insert(std::minmax(u, v));
  }
  out.num_vertices = static_cast<VertexId>(ids.size());
  return out;
}

// A random edge-list text: numeric lines over a small id range (so ids
// repeat, and self-loops and duplicate edges occur), blank and comment
// lines, extra columns, CRLF endings, and now and then a junk, signed,
// fractional, padded or overflowing token or a missing target.
std::string RandomEdgeListText(Rng* rng) {
  const char* const kBlanks[] = {" ", "  ", "\t", " \t "};
  const char* const kJunk[] = {"x", "1x", "-3", "+4", "2.5", "#", "%7", "7#"};
  auto blank = [&] { return std::string(kBlanks[rng->NextIndex(4)]); };
  auto id = [&]() -> std::string {
    const uint32_t pick = rng->NextIndex(100);
    if (pick < 78) return std::to_string(rng->NextIndex(12));
    if (pick < 83) return "000" + std::to_string(rng->NextIndex(12));
    if (pick < 88) return std::to_string(uint64_t{1} << 40 | rng->NextIndex(4));
    if (pick < 91) return "18446744073709551615";  // UINT64_MAX: still an id
    if (pick < 94) return "18446744073709551616";  // one past: overflow
    return kJunk[rng->NextIndex(8)];
  };
  std::string text;
  const uint32_t lines = rng->NextIndex(12);
  for (uint32_t i = 0; i < lines; ++i) {
    const uint32_t kind = rng->NextIndex(100);
    if (rng->NextBool(0.2)) text += blank();
    if (kind < 8) {
      text += "# comment 1 2";
    } else if (kind < 12) {
      text += "% 3 4";
    } else if (kind < 18) {
      if (rng->NextBool(0.5)) text += blank();
    } else if (kind < 22) {
      text += id();  // no target
    } else {
      text += id() + blank() + id();
      if (rng->NextBool(0.2)) text += blank() + id();  // ignored column
      if (rng->NextBool(0.2)) text += blank();
    }
    if (i + 1 < lines || rng->NextBool(0.7)) {
      text += rng->NextBool(0.1) ? "\r\n" : "\n";
    }
  }
  return text;
}

TEST(ParseEdgeListFuzz, AgreesWithReferenceReader) {
  Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::string text = RandomEdgeListText(&rng);
    const std::optional<ReferenceEdgeList> want = ReferenceParse(text);
    const Result<Graph> got = io::ParseEdgeList(text);
    ASSERT_EQ(got.ok(), want.has_value()) << "text:\n" << text;
    if (!want.has_value()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const Graph& g = got.value();
    ASSERT_EQ(g.num_vertices(), want->num_vertices) << "text:\n" << text;
    const auto edges = g.Edges();
    ASSERT_EQ(EdgeSet(edges.begin(), edges.end()), want->edges)
        << "text:\n" << text;
  }
  // Both verdicts are well represented.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace hcore
