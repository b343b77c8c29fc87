// Tests for the (k,h)-core component hierarchy.

#include "core/hierarchy.h"

#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/kh_core.h"
#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::ConnectedCoreComponents;
using ::hcore::testing::FreshCores;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

TEST(CoreHierarchy, PaperFigure1AtH2) {
  Graph g = gen::PaperFigure1();
  std::vector<uint32_t> core = FreshCores(g, 2);
  CoreHierarchy tree = BuildCoreHierarchy(g, core);

  // Nesting: one leaf at level 6 (the ten-vertex inner core), one node at
  // level 5 adding v2, v3, one root at level 4 adding v1.
  ASSERT_EQ(tree.roots.size(), 1u);
  const CoreHierarchyNode& root = tree.nodes[tree.roots[0]];
  EXPECT_EQ(root.level, 4u);
  EXPECT_EQ(root.subtree_size, 13u);
  EXPECT_EQ(root.new_vertices, std::vector<VertexId>{0});  // v1
  ASSERT_EQ(root.children.size(), 1u);
  const CoreHierarchyNode& mid = tree.nodes[root.children[0]];
  EXPECT_EQ(mid.level, 5u);
  EXPECT_EQ(mid.subtree_size, 12u);
  ASSERT_EQ(mid.children.size(), 1u);
  const CoreHierarchyNode& leaf = tree.nodes[mid.children[0]];
  EXPECT_EQ(leaf.level, 6u);
  EXPECT_EQ(leaf.subtree_size, 10u);
  EXPECT_TRUE(leaf.children.empty());

  // Component extraction matches the cores.
  EXPECT_EQ(tree.ComponentVertices(tree.roots[0]).size(), 13u);
  EXPECT_EQ(tree.ComponentVertices(root.children[0]).size(), 12u);
}

TEST(CoreHierarchy, DisconnectedGraphHasOneRootPerComponent) {
  GraphBuilder b(7);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // triangle
  b.AddEdge(3, 4);  // edge
  // 5, 6 isolated
  Graph g = b.Build();
  CoreHierarchy tree = BuildCoreHierarchy(g, FreshCores(g, 1));
  EXPECT_EQ(tree.roots.size(), 4u);
}

TEST(CoreHierarchy, EmptyGraph) {
  CoreHierarchy tree = BuildCoreHierarchy(Graph(), {});
  EXPECT_TRUE(tree.nodes.empty());
  EXPECT_TRUE(tree.roots.empty());
  EXPECT_EQ(tree.vertices_in_core, std::vector<uint32_t>{0});
  EXPECT_EQ(tree.edges_in_core, std::vector<uint64_t>{0});
}

TEST(CoreHierarchy, ConnectedCoreComponentsMatchesDefinition) {
  // Two K4s joined through a middle vertex of degree 2: the middle vertex
  // falls out of the 3-core (h=1), splitting it into two components.
  GraphBuilder b(9);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  for (VertexId u = 5; u < 9; ++u) {
    for (VertexId v = u + 1; v < 9; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  std::vector<uint32_t> core = FreshCores(g, 1);
  auto comps = ConnectedCoreComponents(g, core, 3);
  ASSERT_EQ(comps.size(), 2u);
  std::set<size_t> sizes{comps[0].size(), comps[1].size()};
  EXPECT_EQ(sizes, (std::set<size_t>{4}));
  // And the hierarchy root is a single component at level 1 with two
  // level-3 children.
  CoreHierarchy tree = BuildCoreHierarchy(g, core);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.nodes[tree.roots[0]].subtree_size, 9u);
  // Ids are deterministic: the deeper level first, then by smallest new
  // vertex, so the two K4s are nodes 0 and 1, in that order under the root.
  EXPECT_EQ(tree.nodes[tree.roots[0]].children,
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(tree.nodes[0].new_vertices, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(tree.nodes[1].new_vertices, (std::vector<VertexId>{5, 6, 7, 8}));
}

class HierarchyProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(HierarchyProperty, EveryVertexAppearsExactlyOnceAtItsCoreLevel) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> core = FreshCores(g, h);
  CoreHierarchy tree = BuildCoreHierarchy(g, core);
  std::vector<uint32_t> seen(g.num_vertices(), 0);
  for (const CoreHierarchyNode& node : tree.nodes) {
    for (VertexId v : node.new_vertices) {
      ++seen[v];
      EXPECT_EQ(core[v], node.level) << "v=" << v;
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(seen[v], 1u) << "v=" << v;
    EXPECT_NE(tree.node_of[v], CoreHierarchyNode::kNoParentSentinel);
  }
}

TEST_P(HierarchyProperty, NodesMatchConnectedCoreComponents) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> core = FreshCores(g, h);
  CoreHierarchy tree = BuildCoreHierarchy(g, core);
  uint32_t max_level = 0;
  for (uint32_t c : core) max_level = std::max(max_level, c);

  // At every level k, the union of the subtrees of nodes "active" at k
  // (node level >= ... ) must equal the connected components of C_k.
  for (uint32_t k = 0; k <= max_level; ++k) {
    auto expect = ConnectedCoreComponents(g, core, k);
    std::set<std::vector<VertexId>> expect_set(expect.begin(), expect.end());
    // Active nodes at level k: nodes with level >= k whose parent is absent
    // or has level < k.
    std::set<std::vector<VertexId>> got_set;
    for (uint32_t id = 0; id < tree.nodes.size(); ++id) {
      const CoreHierarchyNode& node = tree.nodes[id];
      if (node.level < k) continue;
      bool is_top = node.parent == CoreHierarchyNode::kNoParentSentinel ||
                    tree.nodes[node.parent].level < k;
      if (is_top) got_set.insert(tree.ComponentVertices(id));
    }
    EXPECT_EQ(got_set, expect_set) << spec.Name() << " k=" << k << " h=" << h;
  }
}

TEST_P(HierarchyProperty, ParentChildLevelsAndSizesAreConsistent) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  CoreHierarchy tree = BuildCoreHierarchy(g, FreshCores(g, h));
  for (uint32_t id = 0; id < tree.nodes.size(); ++id) {
    const CoreHierarchyNode& node = tree.nodes[id];
    uint32_t size = static_cast<uint32_t>(node.new_vertices.size());
    for (uint32_t child : tree.nodes[id].children) {
      EXPECT_GT(tree.nodes[child].level, node.level);
      EXPECT_EQ(tree.nodes[child].parent, id);
      size += tree.nodes[child].subtree_size;
    }
    EXPECT_EQ(node.subtree_size, size);
    EXPECT_EQ(tree.ComponentVertices(id).size(), node.subtree_size);
  }
  // Ascending lists, and a second build is identical node for node.
  CoreHierarchy again = BuildCoreHierarchy(g, FreshCores(g, h));
  ASSERT_EQ(again.nodes.size(), tree.nodes.size());
  for (uint32_t id = 0; id < tree.nodes.size(); ++id) {
    const CoreHierarchyNode& node = tree.nodes[id];
    EXPECT_TRUE(std::is_sorted(node.new_vertices.begin(),
                               node.new_vertices.end()));
    EXPECT_TRUE(std::is_sorted(node.children.begin(), node.children.end()));
    const CoreHierarchyNode& twin = again.nodes[id];
    EXPECT_EQ(twin.level, node.level) << "node " << id;
    EXPECT_EQ(twin.parent, node.parent) << "node " << id;
    EXPECT_EQ(twin.children, node.children) << "node " << id;
    EXPECT_EQ(twin.new_vertices, node.new_vertices) << "node " << id;
    EXPECT_EQ(twin.subtree_size, node.subtree_size) << "node " << id;
  }
  EXPECT_EQ(again.node_of, tree.node_of);
  EXPECT_EQ(again.roots, tree.roots);
}

TEST_P(HierarchyProperty, CoreSizesAndEdgeCountsMatchDirectCount) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> core = FreshCores(g, h);
  CoreHierarchy tree = BuildCoreHierarchy(g, core);
  uint32_t max_level = 0;
  for (uint32_t c : core) max_level = std::max(max_level, c);
  ASSERT_EQ(tree.vertices_in_core.size(), max_level + 1);
  ASSERT_EQ(tree.edges_in_core.size(), max_level + 1);
  const auto edges = g.Edges();
  for (uint32_t k = 0; k <= max_level; ++k) {
    uint32_t vertices = 0;
    for (uint32_t c : core) {
      if (c >= k) ++vertices;
    }
    uint64_t induced = 0;
    for (const auto& [u, v] : edges) {
      if (core[u] >= k && core[v] >= k) ++induced;
    }
    EXPECT_EQ(tree.vertices_in_core[k], vertices) << spec.Name() << " k=" << k;
    EXPECT_EQ(tree.edges_in_core[k], induced) << spec.Name() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HierarchyProperty,
    ::testing::Combine(::testing::ValuesIn(hcore::testing::Corpus(40, 2)),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hcore
