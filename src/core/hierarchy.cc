#include "core/hierarchy.h"

#include <algorithm>

#include "util/check.h"

namespace hcore {
namespace {

/// Union-find over vertex ids with path compression and union by size.
class UnionFind {
 public:
  explicit UnionFind(VertexId n) : parent_(n, kInvalidVertex), size_(n, 0) {}

  void MakeSet(VertexId v) {
    parent_[v] = v;
    size_[v] = 1;
  }

  bool Active(VertexId v) const { return parent_[v] != kInvalidVertex; }

  VertexId Find(VertexId v) {
    VertexId root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {
      VertexId next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

  /// Unions the sets of a and b.
  void Union(VertexId a, VertexId b) {
    VertexId ra = Find(a);
    VertexId rb = Find(b);
    if (ra == rb) return;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace

std::vector<VertexId> CoreHierarchy::ComponentVertices(uint32_t node) const {
  HCORE_CHECK(node < nodes.size());
  std::vector<VertexId> out;
  std::vector<uint32_t> stack{node};
  while (!stack.empty()) {
    uint32_t id = stack.back();
    stack.pop_back();
    const CoreHierarchyNode& n = nodes[id];
    out.insert(out.end(), n.new_vertices.begin(), n.new_vertices.end());
    stack.insert(stack.end(), n.children.begin(), n.children.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

CoreHierarchy BuildCoreHierarchy(const Graph& g,
                                 const std::vector<uint32_t>& core) {
  constexpr uint32_t kNone = CoreHierarchyNode::kNoParentSentinel;
  const VertexId n = g.num_vertices();
  HCORE_CHECK(core.size() == n);
  CoreHierarchy out;
  out.node_of.assign(n, kNone);

  uint32_t max_level = 0;
  for (uint32_t c : core) max_level = std::max(max_level, c);
  out.vertices_in_core.resize(max_level + 1);
  out.edges_in_core.resize(max_level + 1);
  // Vertices grouped by core index, ascending within a level.
  std::vector<std::vector<VertexId>> by_level(max_level + 1);
  for (VertexId v = 0; v < n; ++v) by_level[core[v]].push_back(v);

  UnionFind uf(n);
  // node_at_root[r]: the current node of the component whose union-find
  // root is r; kNone once a merge at this level absorbs that node (or for
  // vertices that have never been a root).
  std::vector<uint32_t> node_at_root(n, kNone);
  std::vector<uint32_t> absorbed;  // nodes merged into a node of this level
  uint32_t vertices = 0;  // running |C_k| and |E(G[C_k])|
  uint64_t edges = 0;

  for (uint32_t k = max_level;; --k) {
    // Every merge runs through a level-k vertex, since edges among deeper
    // vertices were joined at their own levels. The first merge touching
    // an older component absorbs its node. A level-k vertex joins the
    // union-find just before its scan, so its active neighbors are the
    // deeper ones and the level-k ones with smaller ids: each edge of
    // G[C_k] not in G[C_{k+1}] is seen exactly once.
    for (VertexId v : by_level[k]) {
      uf.MakeSet(v);
      for (VertexId u : g.neighbors(v)) {
        if (!uf.Active(u)) continue;
        ++edges;
        const VertexId ru = uf.Find(u);
        if (node_at_root[ru] != kNone) {
          absorbed.push_back(node_at_root[ru]);
          node_at_root[ru] = kNone;
        }
        uf.Union(v, ru);
      }
    }
    // One node per component that gained level-k vertices, numbered in the
    // order of its smallest new vertex. Every absorbed root was cleared, so
    // a root without a node is exactly one that needs a node made here.
    for (VertexId v : by_level[k]) {
      uint32_t& id = node_at_root[uf.Find(v)];
      if (id == kNone) {
        id = static_cast<uint32_t>(out.nodes.size());
        out.nodes.emplace_back();
        out.nodes.back().level = k;
      }
      CoreHierarchyNode& node = out.nodes[id];
      node.new_vertices.push_back(v);
      ++node.subtree_size;
      out.node_of[v] = id;
    }
    // Every node holds a vertex, so its first new vertex finds the
    // component it was merged into.
    std::sort(absorbed.begin(), absorbed.end());
    for (uint32_t child : absorbed) {
      CoreHierarchyNode& node = out.nodes[child];
      node.parent = node_at_root[uf.Find(node.new_vertices.front())];
      out.nodes[node.parent].children.push_back(child);
      out.nodes[node.parent].subtree_size += node.subtree_size;
    }
    absorbed.clear();
    vertices += static_cast<uint32_t>(by_level[k].size());
    out.vertices_in_core[k] = vertices;
    out.edges_in_core[k] = edges;
    if (k == 0) break;
  }

  for (uint32_t id = 0; id < out.nodes.size(); ++id) {
    if (out.nodes[id].parent == kNone) out.roots.push_back(id);
  }
  return out;
}

}  // namespace hcore
