// Immutable undirected graph in paged CSR (compressed sparse row) form,
// plus a mutable builder.
//
// All algorithms in hcore operate on this representation. Vertices are dense
// ids in [0, num_vertices()); edges are stored twice (once per endpoint) with
// each adjacency list sorted ascending. Self-loops and parallel edges are
// removed by the builder, matching the paper's setting of simple, undirected,
// unweighted graphs.
//
// Storage is split into fixed vertex-range pages (kPageVertices vertices
// each), every page a self-contained mini-CSR held by shared_ptr. WithEdits
// rebuilds only the pages whose adjacency runs changed and shares the rest
// by pointer, so a small batch costs O(touched pages) and a graph copy costs
// O(pages) pointer bumps — the copy-on-write substrate the epoch-snapshot
// index and the serving front door build on. Adjacency stays contiguous
// inside a page, so neighbors(v) still hands out a plain span and every
// consumer above this layer is representation-agnostic.

#ifndef HCORE_GRAPH_GRAPH_H_
#define HCORE_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hcore {

using VertexId = uint32_t;
using EdgeIndex = uint64_t;

constexpr VertexId kInvalidVertex = 0xFFFFFFFFu;

/// One edge edit, for Graph::WithEdits and batched index maintenance.
struct EdgeEdit {
  VertexId u = 0;
  VertexId v = 0;
  bool insert = true;

  static EdgeEdit Insert(VertexId u, VertexId v) { return {u, v, true}; }
  static EdgeEdit Delete(VertexId u, VertexId v) { return {u, v, false}; }
};

/// Per-kind counts of the edits Graph::WithEdits actually applied (after
/// dedup and no-op filtering), plus the inserts it refused to grow the
/// graph for (see Graph::kMaxGrowth).
struct EdgeEditSummary {
  size_t inserts = 0;
  size_t deletes = 0;
  size_t rejected = 0;

  size_t applied() const { return inserts + deletes; }
};

/// One fixed vertex-range page of the CSR: a self-contained mini-CSR for a
/// run of kPageVertices vertices (the last page may be shorter). `offsets`
/// has size+1 entries and is page-local (offsets[0] == 0); `targets` holds
/// the concatenated sorted adjacency of the page's vertices.
///
/// Pages are immutable once published: they are only ever reachable through
/// `shared_ptr<const AdjacencyPage>` handles that snapshots and epochs share
/// freely across threads, so the type exposes no mutating methods — builders
/// fill the two vectors before the page is wrapped in its const handle
/// (enforced by tools/lint_invariants.py, rule `page-buffer`).
struct AdjacencyPage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
};

/// Immutable simple undirected graph (paged CSR).
class Graph {
 public:
  /// Vertices per page. 2^10 vertices keeps a page's offset array at 8KiB
  /// (one L1's worth) while an average adjacency page on the serving
  /// substrates runs tens to a few hundred KiB — big enough that sharing
  /// amortizes the per-page shared_ptr, small enough that one edit's
  /// copy-on-write rebuild stays microseconds.
  static constexpr int kPageVertexBits = 10;
  static constexpr VertexId kPageVertices = VertexId{1} << kPageVertexBits;

  /// How far one batch may grow the vertex set: an insert naming an id at
  /// or beyond num_vertices() + kMaxGrowth is rejected, so a typo'd or
  /// hostile id cannot make the splice allocate gigabytes.
  static constexpr VertexId kMaxGrowth = VertexId{1} << 20;

  /// Empty graph.
  Graph() = default;

  /// Builds from monolithic CSR arrays, paginating them. `offsets` has n+1
  /// entries; `neighbors[offsets[v] .. offsets[v+1])` lists v's neighbors.
  Graph(const std::vector<EdgeIndex>& offsets,
        const std::vector<VertexId>& neighbors);

  /// Number of vertices.
  VertexId num_vertices() const { return num_vertices_; }

  /// Number of undirected edges (each counted once).
  uint64_t num_edges() const { return num_targets_ / 2; }

  /// Degree of `v`.
  uint32_t degree(VertexId v) const {
    HCORE_DCHECK(v < num_vertices());
    const PageView& pv = views_[v >> kPageVertexBits];
    const VertexId i = v & (kPageVertices - 1);
    return static_cast<uint32_t>(pv.offsets[i + 1] - pv.offsets[i]);
  }

  /// Sorted neighbor list of `v` (contiguous within v's page).
  std::span<const VertexId> neighbors(VertexId v) const {
    HCORE_DCHECK(v < num_vertices());
    const PageView& pv = views_[v >> kPageVertexBits];
    const VertexId i = v & (kPageVertices - 1);
    return {pv.targets + pv.offsets[i], pv.targets + pv.offsets[i + 1]};
  }

  /// True if edge {u, v} exists (binary search, O(log deg)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Maximum degree over all vertices (0 for the empty graph).
  uint32_t MaxDegree() const;

  /// Average degree 2m/n (0 for the empty graph).
  double AverageDegree() const;

  /// Returns the subgraph induced by `vertices` together with the mapping
  /// old-id -> new-id (kInvalidVertex for dropped vertices). Vertex ids in
  /// the result follow the order of `vertices` after dedup+sort.
  std::pair<Graph, std::vector<VertexId>> InducedSubgraph(
      std::vector<VertexId> vertices) const;

  /// Returns an isomorphic copy with vertices renamed by the permutation
  /// `new_to_old` (new vertex i is old vertex new_to_old[i]). Used by the
  /// cache-locality pass: peel a relabeled copy, map indexes back via the
  /// same permutation. O(n + m), adjacency lists stay sorted.
  Graph Relabeled(const std::vector<VertexId>& new_to_old) const;

  /// Applies a batch of edge edits and returns the resulting graph. The
  /// batch is canonicalized (see CanonicalEffectiveEdits) and then applied
  /// copy-on-write: only pages holding a touched adjacency list (or whose
  /// vertex range grows) are rebuilt — by a sorted splice-merge, O(page
  /// edges) each — and every other page is shared by pointer with this
  /// graph. Semantics of the batch:
  ///   * for each edge, the LAST edit in the span wins; superseded edits
  ///     have no effect at all (in particular, a cancelled out-of-range
  ///     insert does not grow the vertex set);
  ///   * self-loops, inserts of present edges, and deletes of absent edges
  ///     (including any delete naming a vertex >= num_vertices(), such as
  ///     the kInvalidVertex sentinel) are no-ops;
  ///   * an EFFECTIVE insert past num_vertices() grows the vertex count;
  ///   * an insert naming an id >= num_vertices() + kMaxGrowth, or the
  ///     kInvalidVertex sentinel, is rejected (dropped and counted in
  ///     `summary->rejected`).
  /// `summary` (optional) receives per-kind counts of the effective edits.
  Graph WithEdits(std::span<const EdgeEdit> edits,
                  EdgeEditSummary* summary = nullptr) const;

  /// The delta-apply half of WithEdits: `canonical` MUST be the exact
  /// output of CanonicalEffectiveEdits against this graph (canonical order,
  /// deduplicated, no no-ops). Callers that canonicalized already — the
  /// index's write path — use this to skip re-canonicalization.
  Graph ApplyCanonicalEdits(std::span<const EdgeEdit> canonical) const;

  /// The canonicalization half of WithEdits without the page splice:
  /// filters and deduplicates `edits` against this graph (same semantics as
  /// above) and returns the effective edits in canonical form (u < v, last
  /// edit of an edge wins, no-ops dropped). O(|edits| log |edits|) plus one
  /// edge probe per surviving edit — used where a consumer needs the
  /// effective batch before the rebuild (e.g. the index's write path, which
  /// credits each group-commit writer with its effective edits).
  std::vector<EdgeEdit> CanonicalEffectiveEdits(
      std::span<const EdgeEdit> edits,
      EdgeEditSummary* summary = nullptr) const;

  /// All edges as (u, v) pairs with u < v.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Number of storage pages (== ceil(num_vertices / kPageVertices)).
  size_t num_pages() const { return pages_.size(); }

  /// Stable identity of page `p`'s buffer: two graphs return the same
  /// pointer for a page index iff they share that page's storage.
  const void* PageIdentity(size_t p) const {
    HCORE_DCHECK(p < pages_.size());
    return pages_[p].get();
  }

  /// Heap bytes held by this graph's page buffers (counting each shared
  /// page once from this graph's perspective).
  uint64_t MemoryBytes() const;

 private:
  // Raw per-page view cached for the hot path: one indirection instead of a
  // shared_ptr chase per access. Entries point into page storage owned by
  // `pages_` (stable under copy/move), never into the vectors themselves.
  struct PageView {
    const EdgeIndex* offsets = nullptr;
    const VertexId* targets = nullptr;
  };

  Graph(VertexId num_vertices, uint64_t num_targets,
        std::vector<std::shared_ptr<const AdjacencyPage>> pages);

  void RebuildViews();

  VertexId num_vertices_ = 0;
  uint64_t num_targets_ = 0;  // directed half-edges across all pages
  std::vector<std::shared_ptr<const AdjacencyPage>> pages_;
  std::vector<PageView> views_;
};

/// Pages the two graphs share by pointer identity at the same page index
/// (compared over the common prefix of their page lists).
size_t CountSharedPages(const Graph& a, const Graph& b);

/// Accumulates edges and produces a normalized (simple, sorted) Graph.
class GraphBuilder {
 public:
  /// `num_vertices` may be 0; AddEdge grows the vertex count as needed.
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {}

  /// Adds undirected edge {u, v}. Self-loops are dropped; duplicates are
  /// deduplicated at Build() time.
  void AddEdge(VertexId u, VertexId v);

  /// Ensures the built graph has at least `n` vertices.
  void EnsureVertices(VertexId n) {
    if (n > num_vertices_) num_vertices_ = n;
  }

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_added_edges() const { return edges_.size(); }

  /// Produces the normalized graph; the builder is left empty.
  Graph Build();

 private:
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace hcore

#endif  // HCORE_GRAPH_GRAPH_H_
