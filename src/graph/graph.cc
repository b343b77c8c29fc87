#include "graph/graph.h"

#include <algorithm>
#include <tuple>

#include "graph/ordering.h"

namespace hcore {

Graph::Graph(VertexId num_vertices, uint64_t num_targets,
             std::vector<std::shared_ptr<const AdjacencyPage>> pages)
    : num_vertices_(num_vertices),
      num_targets_(num_targets),
      pages_(std::move(pages)) {
  HCORE_CHECK(pages_.size() ==
              (static_cast<size_t>(num_vertices_) + kPageVertices - 1) >>
                  kPageVertexBits);
  RebuildViews();
}

Graph::Graph(const std::vector<EdgeIndex>& offsets,
             const std::vector<VertexId>& neighbors) {
  HCORE_CHECK(!offsets.empty());
  HCORE_CHECK(offsets.front() == 0);
  HCORE_CHECK(offsets.back() == neighbors.size());
  num_vertices_ = static_cast<VertexId>(offsets.size() - 1);
  num_targets_ = neighbors.size();
  const size_t num_pages =
      (static_cast<size_t>(num_vertices_) + kPageVertices - 1) >>
      kPageVertexBits;
  pages_.reserve(num_pages);
  for (size_t p = 0; p < num_pages; ++p) {
    const VertexId first = static_cast<VertexId>(p) << kPageVertexBits;
    const VertexId size = std::min(num_vertices_ - first, kPageVertices);
    auto page = std::make_shared<AdjacencyPage>();
    page->offsets.resize(static_cast<size_t>(size) + 1);
    const EdgeIndex base = offsets[first];
    for (VertexId i = 0; i <= size; ++i) {
      page->offsets[i] = offsets[first + i] - base;
    }
    page->targets.assign(neighbors.begin() + base,
                         neighbors.begin() + offsets[first + size]);
    pages_.push_back(std::move(page));
  }
  RebuildViews();
}

void Graph::RebuildViews() {
  views_.resize(pages_.size());
  for (size_t p = 0; p < pages_.size(); ++p) {
    views_[p].offsets = pages_[p]->offsets.data();
    views_[p].targets = pages_[p]->targets.data();
  }
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
  uint64_t bytes = 0;
  for (const auto& page : pages_) {
    bytes += sizeof(AdjacencyPage) +
             page->offsets.size() * sizeof(EdgeIndex) +
             page->targets.size() * sizeof(VertexId);
  }
  return bytes;
}

size_t CountSharedPages(const Graph& a, const Graph& b) {
  const size_t common = std::min(a.num_pages(), b.num_pages());
  size_t shared = 0;
  for (size_t p = 0; p < common; ++p) {
    if (a.PageIdentity(p) == b.PageIdentity(p)) ++shared;
  }
  return shared;
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
  return Graph(offsets, adj);
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
  // pair appears once), plus the resulting vertex and target counts.
  struct Half {
    VertexId v, nbr;
    bool insert;
  };
  std::vector<Half> half;
  half.reserve(canonical.size() * 2);
  VertexId new_n = old_n;
  uint64_t new_targets = num_targets_;
  for (const EdgeEdit& e : canonical) {
    half.push_back({e.u, e.v, e.insert});
    half.push_back({e.v, e.u, e.insert});
    if (e.insert) {
      new_n = std::max(new_n, std::max(e.u, e.v) + 1);
      new_targets += 2;
    } else {
      new_targets -= 2;
    }
  }
  if (half.empty()) return *this;
  std::sort(half.begin(), half.end(), [](const Half& a, const Half& b) {
    return std::tie(a.v, a.nbr) < std::tie(b.v, b.nbr);
  });

  // Copy-on-write sweep: a page is rebuilt iff an edit lands in its vertex
  // range or that range grows (the old last page filling up, or brand-new
  // tail pages); every other page is shared by pointer.
  const size_t num_new_pages =
      (static_cast<size_t>(new_n) + kPageVertices - 1) >> kPageVertexBits;
  std::vector<std::shared_ptr<const AdjacencyPage>> pages;
  pages.reserve(num_new_pages);
  size_t hi = 0;  // cursor into `half`, advanced page by page
  for (size_t p = 0; p < num_new_pages; ++p) {
    const VertexId first = static_cast<VertexId>(p) << kPageVertexBits;
    const VertexId new_size = std::min(new_n - first, kPageVertices);
    const VertexId old_size =
        first < old_n ? std::min(old_n - first, kPageVertices) : 0;
    size_t h_end = hi;
    while (h_end < half.size() && half[h_end].v < first + new_size) ++h_end;
    if (h_end == hi && new_size == old_size) {
      pages.push_back(pages_[p]);
      continue;
    }

    auto page = std::make_shared<AdjacencyPage>();
    page->offsets.assign(static_cast<size_t>(new_size) + 1, 0);
    const PageView old_view = old_size > 0 ? views_[p] : PageView{};
    // Page-local offsets: old degree plus the per-vertex edit delta.
    // Deletes never underflow (each targets a distinct present neighbor).
    for (VertexId i = 0; i < old_size; ++i) {
      page->offsets[i + 1] = old_view.offsets[i + 1] - old_view.offsets[i];
    }
    for (size_t h = hi; h < h_end; ++h) {
      page->offsets[half[h].v - first + 1] +=
          half[h].insert ? EdgeIndex{1} : ~EdgeIndex{0};
    }
    for (VertexId i = 0; i < new_size; ++i) {
      page->offsets[i + 1] += page->offsets[i];
    }
    page->targets.resize(page->offsets[new_size]);

    VertexId i = 0;  // page-local vertex cursor
    size_t h = hi;
    while (i < new_size) {
      const VertexId touched =
          h < h_end ? half[h].v - first : new_size;
      if (i < touched) {
        // Copy-through: the whole untouched run [i, touched) keeps its old
        // adjacency block, contiguous in both pages.
        const VertexId stop = std::min(touched, old_size);
        if (i < stop) {
          std::copy(old_view.targets + old_view.offsets[i],
                    old_view.targets + old_view.offsets[stop],
                    page->targets.begin() + page->offsets[i]);
        }
        i = touched;
        continue;
      }
      // Splice i's list: merge the old sorted adjacency with its sorted
      // edits.
      const VertexId* old_it =
          i < old_size ? old_view.targets + old_view.offsets[i] : nullptr;
      const VertexId* old_end =
          i < old_size ? old_view.targets + old_view.offsets[i + 1] : nullptr;
      EdgeIndex pos = page->offsets[i];
      for (; h < h_end && half[h].v - first == i; ++h) {
        const Half& e = half[h];
        while (old_it != old_end && *old_it < e.nbr) {
          page->targets[pos++] = *old_it++;
        }
        if (e.insert) {
          page->targets[pos++] = e.nbr;
        } else {
          HCORE_DCHECK(old_it != old_end && *old_it == e.nbr);
          ++old_it;
        }
      }
      while (old_it != old_end) page->targets[pos++] = *old_it++;
      HCORE_DCHECK(pos == page->offsets[i + 1]);
      ++i;
    }
    hi = h_end;
    pages.push_back(std::move(page));
  }
  return Graph(new_n, new_targets, std::move(pages));
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
  return Graph(offsets, neighbors);
}

}  // namespace hcore
