#include "apps/hclub.h"

#include <algorithm>

#include "engine/vertex_mask.h"
#include "graph/connectivity.h"
#include "traversal/bounded_bfs.h"
#include "util/timer.h"

namespace hcore {
namespace {

/// Far-pair branch & bound for maximum h-club on one graph.
///
/// A node of the search tree is a candidate set S, held as a VertexMask. If
/// diam(G[S]) <= h, S is an h-club; otherwise some pair u,w has
/// d_{G[S]}(u,w) > h and no h-club can contain both, so we branch on S\{u}
/// and S\{w}. Branch flips and the hopeless-vertex deletions are unwound
/// from the search's own kill trail instead of copying whole masks.
/// The incumbent prunes every node with |S| <= |best|. Disconnected
/// candidates are split into components (an h-club is connected for
/// h < infinity).
class ClubSearch {
 public:
  ClubSearch(const Graph& g, int h, uint64_t max_nodes, double time_limit)
      : g_(g),
        h_(h),
        max_nodes_(max_nodes),
        time_limit_(time_limit),
        bfs_(g.num_vertices()),
        far_count_(g.num_vertices(), 0) {}

  /// Runs the search from candidate set `candidate`. Only sets strictly
  /// larger than `floor_size` are recorded. Returns the best club found
  /// (empty if none beats the floor).
  std::vector<VertexId> Solve(VertexMask candidate, uint32_t floor_size) {
    best_.clear();
    best_floor_ = floor_size;
    Recurse(&candidate);
    return best_;
  }

  uint64_t nodes_explored() const { return nodes_; }
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  uint32_t BestSize() const {
    return std::max(best_floor_, static_cast<uint32_t>(best_.size()));
  }

  void RecordBest(const VertexMask& s) {
    best_.clear();
    s.ForEachAlive([this](VertexId v) { best_.push_back(v); });
  }

  void Recurse(VertexMask* s) {
    if (budget_exhausted_) return;
    ++nodes_;
    if (max_nodes_ != 0 && nodes_ > max_nodes_) {
      budget_exhausted_ = true;
      return;
    }
    if (time_limit_ > 0.0 && (nodes_ & 0x3F) == 0 &&
        timer_.ElapsedSeconds() > time_limit_) {
      budget_exhausted_ = true;
      return;
    }
    const uint32_t size = s->num_alive();
    if (size <= BestSize()) return;  // cannot beat the incumbent

    // Split disconnected candidates: an h-club lies inside one component.
    ConnectedComponents cc = ComputeConnectedComponents(g_, *s);
    if (cc.num_components > 1) {
      // Visit components largest-first so pruning kicks in early.
      std::vector<uint32_t> comp_order(cc.num_components);
      for (uint32_t c = 0; c < cc.num_components; ++c) comp_order[c] = c;
      std::sort(comp_order.begin(), comp_order.end(),
                [&](uint32_t a, uint32_t b) { return cc.sizes[a] > cc.sizes[b]; });
      for (uint32_t c : comp_order) {
        if (cc.sizes[c] <= BestSize()) break;
        VertexMask sub(g_.num_vertices(), false);
        s->ForEachAlive([&](VertexId v) {
          if (cc.component[v] == c) sub.Revive(v);
        });
        Recurse(&sub);
      }
      return;
    }

    // Count, per vertex, how many candidates are farther than h inside
    // G[S]; pick the most-conflicted vertex as the branch pivot. Vertices
    // that cannot reach more than |best| - 1 others can never be part of a
    // winning club in any subset (induced distances only grow when
    // shrinking S), so they are deleted outright before branching.
    uint32_t far_total = 0;
    VertexId pivot = kInvalidVertex;
    uint32_t pivot_far = 0;
    uint32_t max_reach = 0;
    uint32_t hopeless = 0;
    const size_t checkpoint = trail_.size();
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (!s->IsAlive(v)) continue;
      uint32_t reach = bfs_.HDegree(g_, *s, v, h_);
      if (reach + 1 <= BestSize()) {
        // v cannot belong to a club larger than the incumbent in ANY subset
        // of the current candidate (induced distances only grow), so drop
        // it for this subtree. Rolled back before returning: the deletion
        // criterion was evaluated against this node's S, not an ancestor's.
        Kill(s, v);
        ++hopeless;
        continue;
      }
      max_reach = std::max(max_reach, reach);
      far_count_[v] = size - 1 - hopeless - reach;
      far_total += far_count_[v];
      if (far_count_[v] > pivot_far) {
        pivot_far = far_count_[v];
        pivot = v;
      }
    }
    if (hopeless > 0) {  // re-evaluate the shrunken candidate
      Recurse(s);
      ReviveTo(s, checkpoint);
      return;
    }
    // No club inside S can exceed the best h-neighborhood: prune on it.
    if (max_reach + 1 <= BestSize()) return;
    if (far_total == 0) {  // diameter <= h: S is an h-club
      RecordBest(*s);
      return;
    }

    // Find the far partner of the pivot with the highest conflict count.
    std::vector<uint8_t> reach_mask(g_.num_vertices(), 0);
    bfs_.Run(g_, *s, pivot, h_, [&](VertexId u, int) { reach_mask[u] = 1; });
    VertexId partner = kInvalidVertex;
    uint32_t partner_far = 0;
    s->ForEachAlive([&](VertexId v) {
      if (v == pivot || reach_mask[v]) return;
      if (partner == kInvalidVertex || far_count_[v] > partner_far) {
        partner = v;
        partner_far = far_count_[v];
      }
    });
    HCORE_CHECK(partner != kInvalidVertex);

    const size_t branch_point = trail_.size();
    Kill(s, pivot);
    Recurse(s);
    ReviveTo(s, branch_point);
    Kill(s, partner);
    Recurse(s);
    ReviveTo(s, branch_point);
  }

  /// Kills alive `v` in `s` and records it on the trail.
  void Kill(VertexMask* s, VertexId v) {
    s->Kill(v);
    trail_.push_back(v);
  }

  /// Revives every vertex killed since the trail had `mark` entries.
  void ReviveTo(VertexMask* s, size_t mark) {
    while (trail_.size() > mark) {
      s->Revive(trail_.back());
      trail_.pop_back();
    }
  }

  const Graph& g_;
  const int h_;
  const uint64_t max_nodes_;
  const double time_limit_;
  WallTimer timer_;
  BoundedBfs bfs_;
  std::vector<uint32_t> far_count_;
  std::vector<VertexId> trail_;  // vertices killed on the current path
  std::vector<VertexId> best_;
  uint32_t best_floor_ = 0;
  uint64_t nodes_ = 0;
  bool budget_exhausted_ = false;
};

/// Iterative neighborhood-decomposition exact solver (ITDBC substitute):
/// any h-club containing v is a subset of N_h[v] in G, so the global
/// maximum is the best solution over all closed h-neighborhoods. Vertices
/// are visited in descending h-degree order and neighborhoods no larger
/// than the incumbent are skipped.
HClubResult SolveIterative(const Graph& g, const HClubOptions& options,
                           uint32_t floor_size) {
  const VertexId n = g.num_vertices();
  HClubResult out;
  BoundedBfs bfs(n);
  VertexMask all_alive(n, true);
  std::vector<std::pair<VertexId, uint32_t>> order;  // (v, h-degree)
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    order.emplace_back(v, bfs.HDegree(g, all_alive, v, options.h));
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  ClubSearch search(g, options.h, options.max_nodes,
                    options.time_limit_seconds);
  uint32_t best_size = floor_size;
  for (const auto& [v, hdeg] : order) {
    if (hdeg + 1 <= best_size) break;  // |N_h[v]| too small; so are the rest
    VertexMask candidate(n, false);
    candidate.Revive(v);
    bfs.Run(g, all_alive, v, options.h,
            [&](VertexId u, int) { candidate.Revive(u); });
    std::vector<VertexId> found = search.Solve(std::move(candidate), best_size);
    if (found.size() > best_size) {
      best_size = static_cast<uint32_t>(found.size());
      out.members = std::move(found);
    }
    if (search.budget_exhausted()) {
      out.optimal = false;
      break;
    }
  }
  out.nodes_explored = search.nodes_explored();
  return out;
}

/// DROP heuristic: repeatedly deletes the vertex involved in the most
/// >h-distance pairs until the set is an h-club. Polynomial; provides the
/// initial incumbent for the branch and bound.
std::vector<VertexId> DropHeuristicHClub(const Graph& g, int h) {
  const VertexId n = g.num_vertices();
  if (n == 0) return {};
  // Restrict to the largest component first; an h-club is connected.
  VertexMask s(n, false);
  for (VertexId v : LargestComponent(g)) s.Revive(v);

  BoundedBfs bfs(n);
  for (;;) {
    VertexId worst = kInvalidVertex;
    uint32_t worst_far = 0;
    const uint32_t size = s.num_alive();
    s.ForEachAlive([&](VertexId v) {
      uint32_t far = size - 1 - bfs.HDegree(g, s, v, h);
      if (far > worst_far) {
        worst_far = far;
        worst = v;
      }
    });
    if (worst == kInvalidVertex) break;  // no far pairs left: h-club
    s.Kill(worst);
    // Dropping a vertex can disconnect the set; keep the largest component.
    ConnectedComponents cc = ComputeConnectedComponents(g, s);
    if (cc.num_components > 1) {
      uint32_t best_c = 0;
      for (uint32_t c = 1; c < cc.num_components; ++c) {
        if (cc.sizes[c] > cc.sizes[best_c]) best_c = c;
      }
      std::vector<VertexId> to_drop;
      s.ForEachAlive([&](VertexId v) {
        if (cc.component[v] != best_c) to_drop.push_back(v);
      });
      for (VertexId v : to_drop) s.Kill(v);
    }
  }
  return s.AliveVertices();
}

HClubResult SolveBranchAndBound(const Graph& g, const HClubOptions& options,
                                uint32_t floor_size) {
  const VertexId n = g.num_vertices();
  HClubResult out;
  // DROP incumbent gives the search a strong initial floor.
  std::vector<VertexId> incumbent = DropHeuristicHClub(g, options.h);
  uint32_t floor = std::max(floor_size, static_cast<uint32_t>(incumbent.size()));
  if (incumbent.size() > floor_size) out.members = incumbent;

  ClubSearch search(g, options.h, options.max_nodes,
                    options.time_limit_seconds);
  std::vector<VertexId> found = search.Solve(VertexMask(n, true), floor);
  if (found.size() > out.members.size()) {
    out.members = std::move(found);
  }
  out.nodes_explored = search.nodes_explored();
  out.optimal = !search.budget_exhausted();
  return out;
}

HClubResult SolveWith(const Graph& g, const HClubOptions& options,
                      uint32_t floor_size) {
  switch (options.solver) {
    case HClubSolver::kBranchAndBound:
      return SolveBranchAndBound(g, options, floor_size);
    case HClubSolver::kIterative:
      return SolveIterative(g, options, floor_size);
  }
  HCORE_CHECK(false);
  return {};
}

}  // namespace

HClubResult MaxHClub(const Graph& g, const HClubOptions& options) {
  HCORE_CHECK(options.h >= 1);
  WallTimer timer;
  HClubResult out = SolveWith(g, options, 0);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

HClubResult MaxHClubWithCorePrefilter(const Graph& g,
                                      const HClubOptions& options,
                                      KhCoreOptions core_options) {
  HCORE_CHECK(options.h >= 1);
  WallTimer timer;
  if (g.num_vertices() == 0) return {};
  core_options.h = options.h;
  KhCoreResult cores = KhCoreDecomposition(g, core_options);
  HClubResult out =
      MaxHClubFromCores(g, options, cores.core, cores.degeneracy);
  out.seconds = timer.ElapsedSeconds();  // include the decomposition
  return out;
}

HClubResult MaxHClubFromCores(const Graph& g, const HClubOptions& options,
                              const std::vector<uint32_t>& core,
                              uint32_t degeneracy) {
  HCORE_CHECK(options.h >= 1);
  WallTimer timer;
  if (g.num_vertices() == 0) return {};
  HCORE_CHECK(core.size() == g.num_vertices());

  HClubResult out;
  uint32_t k_cur = degeneracy;
  for (;;) {
    std::vector<VertexId> core_vertices = CoreVerticesAtLevel(core, k_cur);
    auto [sub, map] = g.InducedSubgraph(core_vertices);
    // Invert the old->new map for reporting original ids.
    std::vector<VertexId> back(sub.num_vertices());
    for (VertexId old_v = 0; old_v < map.size(); ++old_v) {
      if (map[old_v] != kInvalidVertex) back[map[old_v]] = old_v;
    }
    HClubResult sub_result = SolveWith(sub, options, out.size());
    out.nodes_explored += sub_result.nodes_explored;
    if (sub_result.size() > out.size()) {
      out.members.clear();
      for (VertexId v : sub_result.members) out.members.push_back(back[v]);
      std::sort(out.members.begin(), out.members.end());
    }
    out.optimal = sub_result.optimal;
    // Theorem 3: any h-club of size > k lies inside the (k,h)-core, so a
    // club bigger than the current core index certifies optimality.
    if (out.size() > k_cur || !out.optimal) break;
    // Otherwise descend (Algorithm 7 lines 8-11).
    if (out.size() > 0) {
      k_cur = std::min(k_cur - 1, out.size());
    } else {
      HCORE_CHECK(k_cur > 0);
      --k_cur;
    }
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace hcore
