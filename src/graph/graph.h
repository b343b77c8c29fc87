// Immutable undirected graph in CSR (compressed sparse row) form, plus a
// mutable builder.
//
// All algorithms in hcore operate on this representation. Vertices are dense
// ids in [0, num_vertices()); edges are stored twice (once per endpoint) with
// each adjacency list sorted ascending. Self-loops and parallel edges are
// removed by the builder, matching the paper's setting of simple, undirected,
// unweighted graphs.
//
// The two CSR arrays live in one immutable CsrStorage held by shared_ptr, so
// copying a Graph is one pointer bump and epochs of the index share the
// arrays of a graph they did not change. WithEdits builds a new CsrStorage
// in one O(n + m) merge pass: untouched adjacency runs are block-copied and
// touched lists are spliced.

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

/// The CSR arrays of one Graph: `offsets` has n+1 entries and
/// `targets[offsets[v] .. offsets[v+1])` is v's sorted adjacency.
///
/// Immutable once published: it is only ever reachable through a
/// `shared_ptr<const CsrStorage>` that snapshots and epochs share freely
/// across threads, so the type exposes no mutating methods — Graph's
/// constructor moves the filled vectors in before wrapping them in the
/// const handle (enforced by tools/lint_invariants.py, rule
/// `shared-buffer`).
struct CsrStorage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
};

/// Immutable simple undirected graph (CSR).
class Graph {
 public:
  /// How far one batch may grow the vertex set: an insert naming an id at
  /// or beyond num_vertices() + kMaxGrowth is rejected, so a typo'd or
  /// hostile id cannot make the splice allocate gigabytes.
  static constexpr VertexId kMaxGrowth = VertexId{1} << 20;

  /// Empty graph.
  Graph() = default;

  /// Takes over CSR arrays. `offsets` has n+1 entries;
  /// `neighbors[offsets[v] .. offsets[v+1])` lists v's sorted neighbors.
  Graph(std::vector<EdgeIndex> offsets, std::vector<VertexId> neighbors);

  /// Number of vertices.
  VertexId num_vertices() const { return num_vertices_; }

  /// Number of undirected edges (each counted once).
  uint64_t num_edges() const { return num_targets_ / 2; }

  /// Degree of `v`.
  uint32_t degree(VertexId v) const {
    HCORE_DCHECK(v < num_vertices());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor list of `v`.
  std::span<const VertexId> neighbors(VertexId v) const {
    HCORE_DCHECK(v < num_vertices());
    return {targets_ + offsets_[v], targets_ + offsets_[v + 1]};
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
  /// by one O(n + m) merge copy (ApplyCanonicalEdits); a batch with no
  /// effective edit returns a graph that shares this one's storage.
  /// Semantics of the batch:
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

  /// The canonicalization half of WithEdits without the splice:
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

  /// Benchmark compatibility (perfbench reads it): the storage counts as
  /// one page, so this is 1 for a non-empty graph and 0 for an empty one.
  size_t num_pages() const { return num_vertices_ > 0 ? 1 : 0; }

  /// Heap bytes of this graph's storage: 8(n+1) + 4·2m plus the
  /// CsrStorage struct (0 for a default-constructed graph).
  uint64_t MemoryBytes() const;

 private:
  friend size_t CountSharedPages(const Graph& a, const Graph& b);

  VertexId num_vertices_ = 0;
  uint64_t num_targets_ = 0;  // directed half-edges, 2m
  std::shared_ptr<const CsrStorage> storage_;
  // storage_'s arrays, cached for the hot path: one load instead of a
  // shared_ptr chase per access. The buffers they point into are owned by
  // storage_ and stay put when a Graph is copied or moved.
  const EdgeIndex* offsets_ = nullptr;
  const VertexId* targets_ = nullptr;
};

/// Benchmark compatibility (perfbench reads it): num_pages() of `a` when the
/// two graphs share one storage (a copy, or a batch that changed nothing),
/// else 0.
size_t CountSharedPages(const Graph& a, const Graph& b);

/// Accumulates edges and produces a normalized (simple, sorted) Graph.
class GraphBuilder {
 public:
  /// `num_vertices` may be 0; AddEdge grows the vertex count as needed.
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {}

  /// Adds undirected edge {u, v}; neither id may be kInvalidVertex.
  /// Self-loops are dropped; duplicates are deduplicated at Build() time.
  void AddEdge(VertexId u, VertexId v);

  /// Ensures the built graph has at least `n` vertices.
  void EnsureVertices(VertexId n) {
    if (n > num_vertices_) num_vertices_ = n;
  }

  VertexId num_vertices() const { return num_vertices_; }

  /// Produces the normalized graph; the builder is left empty.
  Graph Build();

 private:
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace hcore

#endif  // HCORE_GRAPH_GRAPH_H_
