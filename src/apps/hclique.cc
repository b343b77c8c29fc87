#include "apps/hclique.h"

#include <algorithm>

#include "core/classic_core.h"
#include "graph/power_graph.h"
#include "util/check.h"
#include "util/timer.h"

namespace hcore {
namespace {

/// Dense bitset adjacency used by the clique search (one word row stripe
/// per vertex). Sized for post-shrinking instances (a few thousand
/// vertices).
class BitGraph {
 public:
  explicit BitGraph(const Graph& g)
      : n_(g.num_vertices()), words_((n_ + 63) / 64), adj_(n_ * words_, 0) {
    for (VertexId v = 0; v < n_; ++v) {
      for (VertexId u : g.neighbors(v)) Set(v, u);
    }
  }

  uint32_t n() const { return n_; }

  bool Adjacent(VertexId u, VertexId v) const {
    return adj_[static_cast<size_t>(u) * words_ + (v >> 6)] >>
               (v & 63) & 1;
  }

  /// Bitset adjacency row of v (words() words).
  const uint64_t* Row(VertexId v) const {
    return &adj_[static_cast<size_t>(v) * words_];
  }

  /// out = candidate ∩ N(v).
  void IntersectNeighbors(VertexId v, const std::vector<uint64_t>& candidate,
                          std::vector<uint64_t>* out) const {
    const uint64_t* row = &adj_[static_cast<size_t>(v) * words_];
    out->resize(words_);
    for (uint32_t w = 0; w < words_; ++w) (*out)[w] = candidate[w] & row[w];
  }

  uint32_t words() const { return words_; }

 private:
  void Set(VertexId u, VertexId v) {
    adj_[static_cast<size_t>(u) * words_ + (v >> 6)] |= uint64_t{1} << (v & 63);
  }

  uint32_t n_;
  uint32_t words_;
  std::vector<uint64_t> adj_;
};

uint32_t PopcountSet(const std::vector<uint64_t>& set) {
  uint32_t total = 0;
  for (uint64_t w : set) total += static_cast<uint32_t>(__builtin_popcountll(w));
  return total;
}

/// Tomita-style maximum clique: branch on candidates in reverse greedy-
/// coloring order, pruning when |clique| + color(v) <= |best|.
class CliqueSearch {
 public:
  explicit CliqueSearch(const BitGraph& g) : g_(g) {}

  std::vector<VertexId> Solve() {
    std::vector<uint64_t> candidate(g_.words(), 0);
    for (VertexId v = 0; v < g_.n(); ++v) {
      candidate[v >> 6] |= uint64_t{1} << (v & 63);
    }
    current_.clear();
    best_.clear();
    Expand(candidate);
    return best_;
  }

  uint64_t nodes_explored() const { return nodes_; }

 private:
  // Greedy coloring of the candidate set; returns vertices ordered by
  // non-decreasing color together with their color (1-based).
  void ColorSort(const std::vector<uint64_t>& candidate,
                 std::vector<std::pair<VertexId, uint32_t>>* ordered) {
    ordered->clear();
    std::vector<uint64_t> uncolored = candidate;
    std::vector<uint64_t> cls(g_.words());
    uint32_t color = 0;
    while (PopcountSet(uncolored) > 0) {
      ++color;
      cls = uncolored;
      // Peel an independent set in the complement sense: take vertices one
      // by one, removing their neighbors from the current color class.
      for (uint32_t w = 0; w < g_.words(); ++w) {
        while (cls[w] != 0) {
          uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(cls[w]));
          VertexId v = (w << 6) + bit;
          cls[w] &= cls[w] - 1;
          // Remove v's neighbors from this color class.
          const uint64_t* row = g_.Row(v);
          for (uint32_t w2 = 0; w2 < g_.words(); ++w2) cls[w2] &= ~row[w2];
          uncolored[v >> 6] &= ~(uint64_t{1} << (v & 63));
          ordered->emplace_back(v, color);
        }
      }
    }
  }

  void Expand(const std::vector<uint64_t>& candidate) {
    ++nodes_;
    std::vector<std::pair<VertexId, uint32_t>> ordered;
    ColorSort(candidate, &ordered);
    std::vector<uint64_t> remaining = candidate;
    std::vector<uint64_t> next;
    // Visit in reverse (highest color first).
    for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
      const auto& [v, color] = *it;
      if (current_.size() + color <= best_.size()) return;  // bound
      current_.push_back(v);
      g_.IntersectNeighbors(v, remaining, &next);
      if (PopcountSet(next) == 0) {
        if (current_.size() > best_.size()) best_ = current_;
      } else {
        Expand(next);
      }
      current_.pop_back();
      remaining[v >> 6] &= ~(uint64_t{1} << (v & 63));
    }
  }

  const BitGraph& g_;
  std::vector<VertexId> current_;
  std::vector<VertexId> best_;
  uint64_t nodes_ = 0;
};

HCliqueResult SolveOnGraph(const Graph& g) {
  HCliqueResult out;
  if (g.num_vertices() == 0) return out;
  // Classic-core shrink: a clique of size k+1 lies in the k-core, so peel
  // iteratively from the largest core downwards.
  ClassicCoreResult cores = ClassicCoreDecomposition(g);
  uint32_t k = cores.degeneracy;
  for (;;) {
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (cores.core[v] >= k) keep.push_back(v);
    }
    auto [sub, map] = g.InducedSubgraph(keep);
    std::vector<VertexId> back(sub.num_vertices());
    for (VertexId old_v = 0; old_v < map.size(); ++old_v) {
      if (map[old_v] != kInvalidVertex) back[map[old_v]] = old_v;
    }
    BitGraph bits(sub);
    CliqueSearch search(bits);
    std::vector<VertexId> found = search.Solve();
    out.nodes_explored += search.nodes_explored();
    if (found.size() > out.members.size()) {
      out.members.clear();
      for (VertexId v : found) out.members.push_back(back[v]);
      std::sort(out.members.begin(), out.members.end());
    }
    // If the best clique exceeds the current core level, no larger clique
    // can hide in a lower core (size k+2 clique would need core >= k+1).
    if (out.size() > k || k == 0) break;
    k = out.size() > 0 ? std::min(k - 1, out.size() - 1) : k - 1;
  }
  return out;
}

}  // namespace

HCliqueResult MaxHClique(const Graph& g, int h) {
  HCORE_CHECK(h >= 1);
  WallTimer timer;
  Graph gh = h == 1 ? g : PowerGraph(g, h);
  HCliqueResult out = SolveOnGraph(gh);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace hcore
