#include "core/kh_core.h"

#include <algorithm>
#include <unordered_set>

#include "core/bounds.h"
#include "core/classic_core.h"
#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "graph/ordering.h"
#include "traversal/bounded_bfs.h"
#include "util/timer.h"

namespace hcore {
namespace {

/// Shared state for the three peeling algorithms, all driven through one
/// PeelingEngine. One Decomposer instance performs one decomposition.
class Decomposer {
 public:
  Decomposer(const Graph& g, const KhCoreOptions& opts)
      : g_(g),
        n_(g.num_vertices()),
        h_(opts.h),
        opts_(opts),
        alive_(n_, true),
        state_(n_, KeyState::kExact),
        lazy_key_(n_, 0),
        assigned_(n_, 0),
        engine_(g, opts.h, &alive_, &bfs_, n_ > 0 ? n_ : 1) {
    result_.core.assign(n_, 0);
    result_.h = h_;
  }

  KhCoreResult Run(KhCoreAlgorithm algorithm) {
    WallTimer timer;
    switch (algorithm) {
      case KhCoreAlgorithm::kBz:
        RunBz();
        break;
      case KhCoreAlgorithm::kLb:
        if (opts_.lower_bound == LowerBoundMode::kNone &&
            opts_.extra_lower_bound == nullptr) {
          // "No lower bound" degenerates to the baseline (Table 5).
          RunBz();
        } else {
          RunLb();
        }
        break;
      case KhCoreAlgorithm::kLbUb:
        RunLbUb();
        break;
      case KhCoreAlgorithm::kAuto:
        HCORE_CHECK(false);  // resolved by the caller
    }
    result_.stats.visited_vertices = bfs_.total_visited();
    result_.stats.hdegree_computations = engine_.stats().hdegree_computations;
    result_.stats.decrement_updates = engine_.stats().decrement_updates;
    result_.stats.pops = engine_.stats().pops;
    result_.stats.seconds = timer.ElapsedSeconds();
    uint32_t degeneracy = 0;
    for (uint32_t c : result_.core) degeneracy = std::max(degeneracy, c);
    result_.degeneracy = degeneracy;
    return std::move(result_);
  }

 private:
  // -------------------------------------------------------------------
  // Algorithm 1: h-BZ. Peel in h-degree order; every surviving vertex of a
  // removed vertex's h-neighborhood gets a full h-degree recomputation.
  // -------------------------------------------------------------------
  struct BzPolicy : PeelPolicyBase {
    explicit BzPolicy(Decomposer* d) : d(d) {}

    bool OnPop(VertexId v, uint32_t k) {
      d->result_.core[v] = k;
      d->assigned_[v] = 1;
      return true;
    }
    // OnNeighbor: default kRecompute for every surviving neighbor. The
    // engine's pinned-bucket skip reproduces the correctness argument of
    // Algorithm 1 ("future removals maintain u in B[k]").

    Decomposer* d;
  };

  void RunBz() {
    engine_.SeedAliveWithHDegrees();
    BzPolicy policy(this);
    engine_.Peel(0, n_, policy);
  }

  // -------------------------------------------------------------------
  // Algorithm 3: the shared peeling loop of h-LB and h-LB+UB. A bucket key
  // is in one of three states (state_):
  //   * kExact:  the true h-degree w.r.t. the current alive set;
  //   * kApprox: a lower bound on the current h-degree, kept current by
  //              every removal near the vertex;
  //   * kLazy:   a lower bound on the core index (lazy_key_ keeps the seed),
  //              which no removal can invalidate.
  // A popped kApprox or kLazy vertex materializes its h-degree (one BFS)
  // and is re-queued, or peeled at once with that BFS's neighborhood when
  // the degree is at most the current bucket. Neighbors at full distance h
  // take an exact unit decrement. A closer neighbor u of the removed w
  // (distance d < h) loses from N_h(u) only vertices whose <= h path from
  // u ran through w, so they lie in the ball B(w, h - d), whose size the
  // engine reads off w's neighborhood: u's key drops by |B(w, h - d)|, less
  // one when u itself lies in that ball (d <= h - d), and stays a valid
  // lower bound (kApprox). Only when that would reach max(lazy_key_[u], k)
  // is u demoted back to its lazy key, where one BFS at its next pop covers
  // every later removal near it. No neighbor is recomputed at once (the
  // paper's line 19): the cores are the paper's, the Table-3 counts are
  // not (fewer BFS runs, more pops).
  // -------------------------------------------------------------------
  struct LazyLbPolicy : PeelPolicyBase {
    LazyLbPolicy(Decomposer* d, uint32_t k_min) : d(d), k_min(k_min) {}

    bool OnPop(VertexId v, uint32_t k) {
      if (d->state_[v] != KeyState::kExact) {
        // The bucket held only a lower bound. Compute the true h-degree
        // w.r.t. the current alive set. Above k, re-queue. At most k, a
        // re-queue would put v at the front of bucket k, exact and pinned,
        // to be popped next over the same alive set: peel it now, and let
        // the removal read the neighborhood this BFS collected.
        const uint32_t hd = d->engine_.Materialize(v);
        if (hd > k) {
          d->engine_.Requeue(v, hd, k);
          d->state_[v] = KeyState::kExact;
          return false;
        }
      }
      if (k >= k_min && !d->assigned_[v]) {
        d->result_.core[v] = k;
        d->assigned_[v] = 1;
      }
      // Any stored h-degree becomes stale once v dies.
      d->state_[v] = KeyState::kLazy;
      return true;
    }

    PeelAction OnNeighbor(VertexId u, int dist, uint32_t k) {
      if (d->state_[u] == KeyState::kLazy) return PeelAction::kSkip;
      // dist == h: removing the popped vertex eliminates exactly itself
      // from u's h-neighborhood (any path through it now exceeds h), so a
      // unit decrement keeps an exact key exact and a bound a bound
      // (Algorithm 3, line 17).
      if (dist == d->h_) return PeelAction::kDecrement;
      // dist < h: u may lose the whole ball B(w, h - dist). The engine only
      // reports u while its bucket is above k, so its key is unclamped.
      // lazy_key_[u] <= core(u) as when it was seeded, and u alive in bucket
      // k has core(u) >= k, so max(lazy_key_[u], k) is a lower bound too.
      // When dist <= h - dist the ball holds u itself, which is never in
      // N_h(u), so the loss is one smaller.
      const uint32_t loss = d->engine_.BallSize(d->h_ - dist) -
                            (2 * dist <= d->h_ ? 1 : 0);
      const uint32_t floor_key = std::max(d->lazy_key_[u], k);
      const uint32_t key = d->engine_.keys()[u];
      if (key > floor_key + loss) {
        ++d->engine_.stats().decrement_updates;
        d->state_[u] = KeyState::kApprox;
        d->engine_.SeedOrMove(u, key - loss);
      } else {
        d->state_[u] = KeyState::kLazy;
        d->engine_.SeedOrMove(u, floor_key);
      }
      return PeelAction::kSkip;
    }

    Decomposer* d;
    uint32_t k_min;
  };

  void CoreDecomp(uint32_t k_min, uint32_t k_max) {
    LazyLbPolicy policy(this, k_min);
    engine_.Peel(k_min, k_max, policy);
  }

  // -------------------------------------------------------------------
  // Algorithms 2+3: h-LB. Vertices start at their lower bound with lazy
  // h-degrees.
  // -------------------------------------------------------------------
  void RunLb() {
    WallTimer bound_timer;
    std::vector<uint32_t> lb = ComputeLowerBound();
    result_.stats.bound_seconds += bound_timer.ElapsedSeconds();
    for (VertexId v = 0; v < n_; ++v) {
      state_[v] = KeyState::kLazy;
      lazy_key_[v] = lb[v];
      engine_.Seed(v, lb[v]);
    }
    CoreDecomp(/*k_min=*/0, /*k_max=*/n_);
  }

  // -------------------------------------------------------------------
  // Algorithms 4+5+6: h-LB+UB. Partition the upper-bound codomain and peel
  // top-down; each partition is cleaned by ImproveLB first.
  // -------------------------------------------------------------------
  void RunLbUb() {
    if (n_ == 0) return;
    WallTimer bound_timer;
    // Lines 3-5 of Algorithm 4: full h-degrees and lower bounds.
    std::vector<uint32_t> hdeg(n_, 0);
    ComputeAllAlive(g_, alive_, h_, &bfs_, &hdeg);
    engine_.stats().hdegree_computations += n_;
    std::vector<uint32_t> lb = ComputeLowerBound();
    std::vector<uint32_t> ub =
        opts_.upper_bound == UpperBoundMode::kPowerGraph
            ? ComputePowerGraphUpperBound(g_, h_, hdeg, &bfs_)
            : std::move(hdeg);
    result_.stats.bound_seconds += bound_timer.ElapsedSeconds();

    // Ordered codomain of UB, descending (line 8-10).
    std::vector<uint32_t> codomain(ub.begin(), ub.end());
    std::sort(codomain.begin(), codomain.end(), std::greater<uint32_t>());
    codomain.erase(std::unique(codomain.begin(), codomain.end()),
                   codomain.end());

    uint32_t lb0 = lb[0];
    for (uint32_t x : lb) lb0 = std::min(lb0, x);

    uint32_t step = static_cast<uint32_t>(opts_.partition_size);
    if (step == 0) {
      step = std::max<uint32_t>(
          1, static_cast<uint32_t>(codomain.size()) / 16);
    }

    // Line 11: intervals of `step` contiguous upper-bound values, visited
    // top-down. The floor of the last interval is the global minimum lower
    // bound lb0 (the paper appends min LB2 - 1 to U; equivalent).
    for (size_t i = 0; i < codomain.size(); i += step) {
      const uint32_t k_max = codomain[i];
      const uint32_t k_min = (i + step < codomain.size())
                                 ? codomain[i + step] + 1
                                 : std::min(lb0, codomain.back());
      ProcessPartition(k_min, k_max, lb, ub);
      if (k_min == 0) break;  // everything is assigned
    }
  }

  void ProcessPartition(uint32_t k_min, uint32_t k_max,
                        const std::vector<uint32_t>& lb,
                        const std::vector<uint32_t>& ub) {
    ++result_.stats.partitions;
    // Line 12: V[k_min] = {v : UB(v) >= k_min}. This resurrects vertices
    // peeled by earlier (higher) partitions. The O(1) epoch reset makes the
    // per-partition view swap free of buffer refills.
    alive_.ResetAllDead();
    for (VertexId v = 0; v < n_; ++v) {
      if (ub[v] >= k_min) alive_.Revive(v);
    }
    if (alive_.num_alive() == 0) return;

    // Line 13-14: ImproveLB cleans V[k_min] and lifts the lower bound
    // (Property 3). Vertices already assigned in higher partitions are
    // settled: their true h-degree in V[k_min] is >= their core index
    // >= k_max + 1 (Observation 3), so ImproveLB never cleans them and
    // skips their BFS, counting them at that floor in LB3's minimum.
    ImproveLbResult improved = ImproveLB(g_, h_, k_min, &alive_, lb, assigned_,
                                         k_max + 1, &bfs_);
    engine_.stats().hdegree_computations += improved.computed;

    // Lines 15-17: re-bucket every surviving candidate lazily.
    const uint32_t floor_key = (k_min == 0) ? 0 : k_min - 1;
    alive_.ForEachAlive([&](VertexId v) {
      uint32_t key = std::max(improved.lb3[v], floor_key);
      if (assigned_[v]) key = std::max(key, result_.core[v]);
      state_[v] = KeyState::kLazy;
      lazy_key_[v] = key;
      engine_.SeedOrMove(v, key);
    });
    CoreDecomp(k_min, k_max);
  }

  /// LB1 or LB2 per options (h-LB/h-LB+UB precomputation), combined with
  /// any caller-provided external lower bound.
  std::vector<uint32_t> ComputeLowerBound() {
    std::vector<uint32_t> lb;
    switch (opts_.lower_bound) {
      case LowerBoundMode::kNone:
        lb.assign(n_, 0);
        break;
      case LowerBoundMode::kLb1:
        lb = ComputeLB1(g_, h_, &bfs_);
        break;
      case LowerBoundMode::kLb2: {
        std::vector<uint32_t> lb1 = ComputeLB1(g_, h_, &bfs_);
        lb = ComputeLB2(g_, h_, lb1);
        break;
      }
    }
    if (opts_.extra_lower_bound != nullptr) {
      const auto& extra = *opts_.extra_lower_bound;
      HCORE_CHECK(extra.size() == n_);
      for (VertexId v = 0; v < n_; ++v) lb[v] = std::max(lb[v], extra[v]);
    }
    return lb;
  }

  const Graph& g_;
  const VertexId n_;
  const int h_;
  const KhCoreOptions& opts_;
  // Every BFS of the decomposition (bounds, peel, ImproveLB) runs here, so
  // its visit count is the run's Table-3 "visits".
  BoundedBfs bfs_;
  VertexMask alive_;
  // What each bucket key means (see LazyLbPolicy).
  enum class KeyState : uint8_t { kExact, kApprox, kLazy };
  std::vector<KeyState> state_;
  // Seed key of each lazy vertex (a lower bound on its core index), which a
  // demoted vertex returns to.
  std::vector<uint32_t> lazy_key_;
  std::vector<uint8_t> assigned_;
  PeelingEngine engine_;
  KhCoreResult result_;
};

KhCoreAlgorithm ResolveAlgorithm(const KhCoreOptions& opts) {
  // §6.2 has h-LB+UB winning from h = 3 on social graphs. With the
  // ball-bounded demotion of LazyLbPolicy, h-LB measured faster at every h
  // tried (measurements in KhCoreAlgorithm::kAuto).
  return opts.algorithm == KhCoreAlgorithm::kAuto ? KhCoreAlgorithm::kLb
                                                  : opts.algorithm;
}

/// Resolves a VertexOrdering for `g` to a concrete permutation
/// (new-id -> old-id), or empty for "peel the graph as given". kAuto applies
/// the locality heuristic here (one gap-sampling pass).
std::vector<VertexId> ResolveVertexOrdering(const Graph& g,
                                            VertexOrdering ordering) {
  switch (ordering) {
    case VertexOrdering::kNone:
      return {};
    case VertexOrdering::kAuto:
      // The per-component mean |v - u| id gap over ~1k sampled vertices
      // separates the two regimes cleanly (see VertexOrdering and
      // MeanNeighborGapFraction for the measured numbers and why the score
      // is per component): locality-preserving orders score well under 0.1,
      // scrambled ids ~1/3. Relabel only when scrambled.
      return MeanNeighborGapFraction(g) > kScrambledGapFraction
                 ? BfsOrder(g)
                 : std::vector<VertexId>{};
  }
  return {};
}

}  // namespace

uint32_t KhCoreResult::NumDistinctCores() const {
  std::unordered_set<uint32_t> values(core.begin(), core.end());
  return static_cast<uint32_t>(values.size());
}

std::vector<VertexId> CoreVerticesAtLevel(const std::vector<uint32_t>& core,
                                          uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < core.size(); ++v) {
    if (core[v] >= k) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> KhCoreResult::CoreVertices(uint32_t k) const {
  return CoreVerticesAtLevel(core, k);
}

std::vector<uint32_t> KhCoreResult::CoreSizes() const {
  std::vector<uint32_t> sizes(degeneracy + 1, 0);
  for (uint32_t c : core) ++sizes[std::min(c, degeneracy)];
  // Suffix-sum: sizes[k] = |{v : core(v) >= k}|.
  for (uint32_t k = degeneracy; k > 0; --k) sizes[k - 1] += sizes[k];
  return sizes;
}

KhCoreResult KhCoreDecomposition(const Graph& g, const KhCoreOptions& options) {
  HCORE_CHECK(options.h >= 1);
  HCORE_CHECK(options.partition_size >= 0);
  if (options.h == 1) {
    // Classic core decomposition: the (k,1)-core is the k-core.
    WallTimer timer;
    KhCoreResult out;
    out.h = 1;
    ClassicCoreResult classic = ClassicCoreDecomposition(g);
    out.core = std::move(classic.core);
    out.degeneracy = classic.degeneracy;
    out.stats.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Cache-locality pass: peel a relabeled copy so the hot h-bounded BFS
  // walks near-sequential memory; the id round-trip happens here, once,
  // instead of in every caller.
  WallTimer timer;
  const std::vector<VertexId> order =
      ResolveVertexOrdering(g, options.ordering);
  if (order.empty()) {
    Decomposer decomposer(g, options);
    return decomposer.Run(ResolveAlgorithm(options));
  }

  const Graph relabeled = g.Relabeled(order);
  KhCoreOptions relabeled_opts = options;
  // A caller-provided lower bound is in old ids; permute a copy.
  std::vector<uint32_t> lb_perm;
  if (options.extra_lower_bound != nullptr) {
    HCORE_CHECK(options.extra_lower_bound->size() == g.num_vertices());
    lb_perm = GatherByPermutation(*options.extra_lower_bound, order);
    relabeled_opts.extra_lower_bound = &lb_perm;
  }

  Decomposer decomposer(relabeled, relabeled_opts);
  KhCoreResult result = decomposer.Run(ResolveAlgorithm(relabeled_opts));
  result.core = ScatterByPermutation(result.core, order);
  result.stats.seconds = timer.ElapsedSeconds();  // include ordering cost
  return result;
}

std::string ToString(KhCoreAlgorithm algorithm) {
  switch (algorithm) {
    case KhCoreAlgorithm::kAuto:
      return "auto";
    case KhCoreAlgorithm::kBz:
      return "h-BZ";
    case KhCoreAlgorithm::kLb:
      return "h-LB";
    case KhCoreAlgorithm::kLbUb:
      return "h-LB+UB";
  }
  return "?";
}

}  // namespace hcore
