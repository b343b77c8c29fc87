#include "graph/graph.h"

#include <algorithm>
#include <tuple>

#include "graph/ordering.h"

namespace hcore {

Graph::Graph(std::vector<EdgeIndex> offsets,
             std::vector<VertexId> neighbors) {
  HCORE_CHECK(!offsets.empty());
  HCORE_CHECK(offsets.front() == 0);
  HCORE_CHECK(offsets.back() == neighbors.size());
  num_vertices_ = static_cast<VertexId>(offsets.size() - 1);
  num_targets_ = neighbors.size();
  storage_ = std::make_shared<const CsrStorage>(
      CsrStorage{std::move(offsets), std::move(neighbors)});
  offsets_ = storage_->offsets.data();
  targets_ = storage_->targets.data();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the shorter adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

uint32_t Graph::MaxDegree() const {
  uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(num_targets_) / num_vertices();
}

uint64_t Graph::MemoryBytes() const {
  if (storage_ == nullptr) return 0;
  return sizeof(CsrStorage) + storage_->offsets.size() * sizeof(EdgeIndex) +
         storage_->targets.size() * sizeof(VertexId);
}

size_t CountSharedPages(const Graph& a, const Graph& b) {
  return a.storage_ == b.storage_ ? a.num_pages() : 0;
}

std::pair<Graph, std::vector<VertexId>> Graph::InducedSubgraph(
    std::vector<VertexId> vertices) const {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  std::vector<VertexId> map(num_vertices(), kInvalidVertex);
  for (VertexId i = 0; i < vertices.size(); ++i) {
    HCORE_CHECK(vertices[i] < num_vertices());
    map[vertices[i]] = i;
  }
  GraphBuilder builder(static_cast<VertexId>(vertices.size()));
  for (VertexId nv = 0; nv < vertices.size(); ++nv) {
    VertexId old_v = vertices[nv];
    for (VertexId old_u : neighbors(old_v)) {
      VertexId nu = map[old_u];
      if (nu != kInvalidVertex && old_u > old_v) builder.AddEdge(nv, nu);
    }
  }
  return {builder.Build(), std::move(map)};
}

Graph Graph::Relabeled(const std::vector<VertexId>& new_to_old) const {
  const VertexId n = num_vertices();
  HCORE_CHECK(new_to_old.size() == n);
  // Inversion also validates that new_to_old is a bijection.
  std::vector<VertexId> old_to_new = InvertPermutation(new_to_old);
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + degree(new_to_old[nv]);
  }
  std::vector<VertexId> adj(num_targets_);
  for (VertexId nv = 0; nv < n; ++nv) {
    EdgeIndex cursor = offsets[nv];
    for (VertexId old_u : neighbors(new_to_old[nv])) {
      adj[cursor++] = old_to_new[old_u];
    }
    std::sort(adj.begin() + offsets[nv], adj.begin() + offsets[nv + 1]);
  }
  return Graph(std::move(offsets), std::move(adj));
}

std::vector<EdgeEdit> Graph::CanonicalEffectiveEdits(
    std::span<const EdgeEdit> edits, EdgeEditSummary* summary) const {
  const VertexId old_n = num_vertices();
  // Inserts may name ids below this limit. It also excludes the
  // kInvalidVertex sentinel, whose max id + 1 would wrap the vertex count.
  const uint64_t id_limit =
      std::min<uint64_t>(uint64_t{old_n} + kMaxGrowth, kInvalidVertex);

  // Normalize: canonical endpoint order, later edits of the same edge win.
  struct Keyed {
    VertexId u, v;
    uint32_t seq;
    bool insert;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(edits.size());
  EdgeEditSummary counts;
  uint32_t seq = 0;
  for (const EdgeEdit& e : edits) {
    ++seq;
    if (e.u == e.v) continue;
    if (e.insert && std::max(e.u, e.v) >= id_limit) {
      // No edge of this graph names such an id, so every other edit of the
      // same edge is a no-op too: rejecting the insert up front is exact.
      ++counts.rejected;
      continue;
    }
    keyed.push_back({std::min(e.u, e.v), std::max(e.u, e.v), seq, e.insert});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.u, a.v, a.seq) < std::tie(b.u, b.v, b.seq);
  });

  std::vector<EdgeEdit> effective;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i + 1 < keyed.size() && keyed[i].u == keyed[i + 1].u &&
        keyed[i].v == keyed[i + 1].v) {
      continue;  // superseded by a later edit of the same edge
    }
    const Keyed& e = keyed[i];
    // A delete naming a vertex this graph does not have (including one a
    // sibling edit in the same batch is about to create) deletes nothing.
    // HasEdge would conclude the same from its own bounds check; stating
    // the id/old_n contract here keeps it independent of that internal.
    if (!e.insert && e.v >= old_n) continue;  // u <= v
    const bool present = HasEdge(e.u, e.v);
    if (e.insert == present) continue;
    ++(e.insert ? counts.inserts : counts.deletes);
    effective.push_back(e.insert ? EdgeEdit::Insert(e.u, e.v)
                                 : EdgeEdit::Delete(e.u, e.v));
  }
  if (summary != nullptr) *summary = counts;
  return effective;
}

Graph Graph::WithEdits(std::span<const EdgeEdit> edits,
                       EdgeEditSummary* summary) const {
  return ApplyCanonicalEdits(CanonicalEffectiveEdits(edits, summary));
}

Graph Graph::ApplyCanonicalEdits(std::span<const EdgeEdit> canonical) const {
  const VertexId old_n = num_vertices();

  // Canonical edits as directed half-edges (each touched (vertex, neighbor)
  // pair appears once), plus the resulting vertex count.
  struct Half {
    VertexId v, nbr;
    bool insert;
  };
  std::vector<Half> half;
  half.reserve(canonical.size() * 2);
  VertexId new_n = old_n;
  for (const EdgeEdit& e : canonical) {
    half.push_back({e.u, e.v, e.insert});
    half.push_back({e.v, e.u, e.insert});
    if (e.insert) new_n = std::max(new_n, std::max(e.u, e.v) + 1);
  }
  if (half.empty()) return *this;
  std::sort(half.begin(), half.end(), [](const Half& a, const Half& b) {
    return std::tie(a.v, a.nbr) < std::tie(b.v, b.nbr);
  });

  // New offsets: old degree plus the per-vertex edit delta. Deletes never
  // underflow (each targets a distinct present neighbor).
  std::vector<EdgeIndex> offsets(static_cast<size_t>(new_n) + 1, 0);
  for (VertexId v = 0; v < old_n; ++v) offsets[v + 1] = degree(v);
  for (const Half& e : half) {
    offsets[e.v + 1] += e.insert ? EdgeIndex{1} : ~EdgeIndex{0};
  }
  for (VertexId v = 0; v < new_n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(offsets[new_n]);

  VertexId v = 0;
  size_t h = 0;  // cursor into `half`
  while (v < new_n) {
    const VertexId touched = h < half.size() ? half[h].v : new_n;
    if (v < touched) {
      // Copy-through: the whole untouched run [v, touched) keeps its old
      // adjacency block, contiguous in both graphs.
      const VertexId stop = std::min(touched, old_n);
      if (v < stop) {
        std::copy(targets_ + offsets_[v], targets_ + offsets_[stop],
                  targets.begin() + offsets[v]);
      }
      v = touched;
      continue;
    }
    // Splice v's list: merge the old sorted adjacency with its sorted edits.
    const VertexId* old_it = v < old_n ? targets_ + offsets_[v] : nullptr;
    const VertexId* old_end = v < old_n ? targets_ + offsets_[v + 1] : nullptr;
    EdgeIndex pos = offsets[v];
    for (; h < half.size() && half[h].v == v; ++h) {
      const Half& e = half[h];
      while (old_it != old_end && *old_it < e.nbr) targets[pos++] = *old_it++;
      if (e.insert) {
        targets[pos++] = e.nbr;
      } else {
        HCORE_DCHECK(old_it != old_end && *old_it == e.nbr);
        ++old_it;
      }
    }
    while (old_it != old_end) targets[pos++] = *old_it++;
    HCORE_DCHECK(pos == offsets[v + 1]);
    ++v;
  }
  return Graph(std::move(offsets), std::move(targets));
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(num_edges());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (VertexId u : neighbors(v)) {
      if (v < u) out.emplace_back(v, u);
    }
  }
  return out;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  // v + 1 below would wrap the sentinel to 0 and leave the count short.
  HCORE_CHECK(u != kInvalidVertex && v != kInvalidVertex);
  if (u == v) return;  // No self-loops in a simple graph.
  if (u > v) std::swap(u, v);
  EnsureVertices(v + 1);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  const VertexId n = num_vertices_;
  std::vector<EdgeIndex> offsets(static_cast<size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> neighbors(edges_.size() * 2);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  // Edges were sorted by (u, v); the scatter above leaves each adjacency
  // list sorted for the `u` side but not necessarily for the `v` side.
  for (VertexId v = 0; v < n; ++v) {
    std::sort(neighbors.begin() + offsets[v], neighbors.begin() + offsets[v + 1]);
  }
  edges_.clear();
  edges_.shrink_to_fit();
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace hcore
