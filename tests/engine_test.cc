// Tests for the engine layer: the bitset VertexMask (resets, tail bits,
// counts), the generic PeelingEngine (policy hooks,
// decrement vs recompute bookkeeping), and the cache-locality pass
// (orderings, Graph::Relabeled, and ordering-invariance of the
// decomposition).

#include "engine/peeling_engine.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "core/kh_core.h"
#include "core/spectrum.h"
#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::BruteForceKhCore;
using ::hcore::testing::Corpus;
using ::hcore::testing::FreshCores;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::Path;
using ::hcore::testing::RandomGraphSpec;
using ::hcore::testing::ScrambledIds;

// ---------------------------------------------------------------------------
// VertexMask.
// ---------------------------------------------------------------------------

TEST(VertexMask, ConstructionPolarity) {
  VertexMask all(5, true);
  EXPECT_EQ(all.num_alive(), 5u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_TRUE(all.IsAlive(v));

  VertexMask none(5, false);
  EXPECT_EQ(none.num_alive(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_FALSE(none.IsAlive(v));

  std::vector<VertexId> subset{1, 3};
  VertexMask some(5, subset);
  EXPECT_EQ(some.num_alive(), 2u);
  EXPECT_TRUE(some.IsAlive(1));
  EXPECT_TRUE(some.IsAlive(3));
  EXPECT_FALSE(some.IsAlive(0));
}

TEST(VertexMask, KillReviveMaintainCount) {
  VertexMask m(4, true);
  m.Kill(2);
  EXPECT_FALSE(m.IsAlive(2));
  EXPECT_EQ(m.num_alive(), 3u);
  m.Kill(2);  // no-op
  EXPECT_EQ(m.num_alive(), 3u);
  m.Revive(2);
  EXPECT_TRUE(m.IsAlive(2));
  EXPECT_EQ(m.num_alive(), 4u);
  m.Revive(2);  // no-op
  EXPECT_EQ(m.num_alive(), 4u);
  EXPECT_EQ(m.AliveVertices(), (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(VertexMask, ResetsFlipWholeSetAcrossManyEpochs) {
  VertexMask m(6, true);
  for (int round = 0; round < 100; ++round) {
    m.ResetAllDead();
    EXPECT_EQ(m.num_alive(), 0u);
    EXPECT_FALSE(m.IsAlive(round % 6));
    m.Revive(round % 6);
    EXPECT_TRUE(m.IsAlive(round % 6));
    m.Assign(6, true);
    EXPECT_EQ(m.num_alive(), 6u);
    m.Kill(round % 6);
    EXPECT_FALSE(m.IsAlive(round % 6));
    EXPECT_EQ(m.num_alive(), 5u);
  }
}

TEST(VertexMask, TailBitsStayClearWhenSizeIsNotAWordMultiple) {
  // 130 = 2 * 64 + 2: the last word holds two vertices. A whole-set reset
  // must not report the 62 padding bits, before or after a resize.
  VertexMask m(130, false);
  m.Assign(130, true);
  EXPECT_EQ(m.num_alive(), 130u);
  std::vector<VertexId> all(130);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(m.AliveVertices(), all);

  m.Assign(70, true);  // shrink: the tail of word 1 must be cleared
  EXPECT_EQ(m.num_alive(), 70u);
  ASSERT_EQ(m.AliveVertices().size(), 70u);
  EXPECT_EQ(m.AliveVertices().back(), 69u);

  m.Assign(200, true);  // grow past the old tail
  EXPECT_EQ(m.AliveVertices().size(), 200u);
  m.Kill(199);
  m.Kill(64);
  EXPECT_EQ(m.num_alive(), 198u);
  m.ResetAllDead();
  EXPECT_TRUE(m.AliveVertices().empty());
  m.Revive(129);
  EXPECT_EQ(m.AliveVertices(), (std::vector<VertexId>{129}));
}

TEST(VertexMask, KillReviveAcrossWordBoundaries) {
  VertexMask m(200, true);
  for (VertexId v : {0u, 63u, 64u, 127u, 128u, 199u}) m.Kill(v);
  m.Kill(64);  // already dead: the count does not move
  EXPECT_EQ(m.num_alive(), 194u);
  for (VertexId v : {0u, 64u, 127u, 128u, 199u}) m.Revive(v);
  EXPECT_EQ(m.num_alive(), 199u);
  EXPECT_FALSE(m.IsAlive(63));
  for (VertexId v : {0u, 64u, 127u, 128u, 199u}) EXPECT_TRUE(m.IsAlive(v));
  std::vector<VertexId> expect(200);
  std::iota(expect.begin(), expect.end(), 0);
  expect.erase(expect.begin() + 63);
  EXPECT_EQ(m.AliveVertices(), expect);
}

TEST(VertexMask, ForEachAliveSeesTogglesMadeByTheCallback) {
  // Killing the next vertex while visiting one skips it, as a plain
  // IsAlive scan would, within a word and across the word boundary.
  VertexMask m(130, true);
  std::vector<VertexId> seen;
  m.ForEachAlive([&](VertexId v) {
    seen.push_back(v);
    if (v + 1 < m.size()) m.Kill(v + 1);
  });
  ASSERT_EQ(seen.size(), 65u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 2 * i);
}

// ---------------------------------------------------------------------------
// PeelingEngine.
// ---------------------------------------------------------------------------

/// Reference decrement-peel: the engine with a unit-decrement policy over
/// h = 1 must reproduce the classic core decomposition exactly.
TEST(PeelingEngine, DecrementPolicyReproducesClassicCores) {
  for (const auto& spec : Corpus(40, 1)) {
    Graph g = MakeRandomGraph(spec);
    ClassicCoreResult expect = ClassicCoreDecomposition(g);

    struct Policy : PeelPolicyBase {
      PeelAction OnNeighbor(VertexId, int, uint32_t) {
        return PeelAction::kDecrement;
      }
      void OnPeeled(VertexId v, uint32_t k) { core[v] = k; }
      std::vector<uint32_t> core;
    };

    const VertexId n = g.num_vertices();
    VertexMask alive(n, true);
    BoundedBfs bfs(n);
    PeelingEngine engine(g, 1, &alive, &bfs, g.MaxDegree());
    for (VertexId v = 0; v < n; ++v) engine.Seed(v, g.degree(v));
    Policy policy;
    policy.core.assign(n, 0);
    engine.Peel(0, g.MaxDegree(), policy);
    EXPECT_EQ(policy.core, expect.core) << spec.Name();
    EXPECT_EQ(alive.num_alive(), 0u);
    EXPECT_EQ(engine.stats().pops, n);
  }
}

TEST(PeelingEngine, LazyRequeuePopsVertexTwice) {
  // Seed a triangle with zero lower bounds; a lazy policy materializes the
  // true degree on first pop, so every vertex is popped exactly twice and
  // ends at core 2.
  Graph g = gen::Complete(3);
  VertexMask alive(3, true);
  BoundedBfs bfs(3);
  PeelingEngine engine(g, 1, &alive, &bfs, 3);

  struct Policy : PeelPolicyBase {
    Policy(PeelingEngine* e, const Graph& g, BoundedBfs* bfs)
        : e(e), g(g), bfs(bfs), lazy(g.num_vertices(), 1) {}
    bool OnPop(VertexId v, uint32_t k) {
      if (lazy[v]) {
        lazy[v] = 0;
        // Policies run inline in the single-threaded engine loop.
        e->Requeue(v, bfs->HDegree(g, e->alive(), v, 1), k);
        return false;
      }
      core[v] = k;
      return true;
    }
    PeelAction OnNeighbor(VertexId, int, uint32_t) {
      return PeelAction::kDecrement;
    }
    PeelingEngine* e;
    const Graph& g;
    BoundedBfs* bfs;
    std::vector<uint8_t> lazy;
    std::vector<uint32_t> core = std::vector<uint32_t>(3, 0);
  };

  for (VertexId v = 0; v < 3; ++v) engine.Seed(v, 0);
  Policy policy(&engine, g, &bfs);
  engine.Peel(0, 3, policy);
  EXPECT_EQ(policy.core, (std::vector<uint32_t>{2, 2, 2}));
  EXPECT_EQ(engine.stats().pops, 6u);  // each vertex popped twice
}

/// Policy for the key-update observation test below (local classes cannot
/// declare the kSkipPinned static member until C++23).
struct ObserveHubPolicy : PeelPolicyBase {
  static constexpr bool kSkipPinned = false;
  PeelAction OnNeighbor(VertexId, int, uint32_t) {
    return PeelAction::kDecrement;
  }
  void OnKeyUpdate(VertexId u, uint32_t old_key, uint32_t new_key) {
    if (u == 0) {
      EXPECT_EQ(old_key, new_key + 1);
      ++hub_updates;
    }
  }
  int hub_updates = 0;
};

TEST(PeelingEngine, KeyUpdateHookSeesEveryChangeWhenPinnedSkipOff) {
  // On a star with h = 1, peeling the hub last means every leaf removal
  // decrements the hub; with kSkipPinned = false the policy observes the
  // hub's key walking all the way down.
  Graph g = gen::Star(5);  // hub 0, leaves 1..4
  VertexMask alive(5, true);
  BoundedBfs bfs(5);
  PeelingEngine engine(g, 1, &alive, &bfs, 5);

  engine.Seed(0, g.degree(0));
  for (VertexId v = 1; v < 5; ++v) engine.Seed(v, 1);
  ObserveHubPolicy policy;
  engine.Peel(0, 5, policy);
  // The hub (degree 4) is decremented once per leaf removed before the hub
  // itself reaches bucket 1 and is popped.
  EXPECT_GE(policy.hub_updates, 3);
}

/// Records |B(w, r)| for r = 0..h at the first neighbor update of each
/// removed vertex w (every neighbor is skipped, so keys never move).
struct BallPolicy : PeelPolicyBase {
  BallPolicy(const PeelingEngine* e, VertexId n) : e(e), balls(n) {}
  bool OnPop(VertexId v, uint32_t) {
    popped = v;
    return true;
  }
  PeelAction OnNeighbor(VertexId, int, uint32_t) {
    std::vector<uint32_t>& ball = balls[popped];
    if (ball.empty()) {
      for (int r = 0; r <= e->h(); ++r) ball.push_back(e->BallSize(r));
    }
    return PeelAction::kSkip;
  }
  const PeelingEngine* e;
  VertexId popped = 0;
  std::vector<std::vector<uint32_t>> balls;
};

/// Peels `g` in `order` (vertex order[i] is seeded at key i) and returns
/// each removal's ball sizes for radii 0..h over the vertices alive then.
std::vector<std::vector<uint32_t>> BallSizesInOrder(
    const Graph& g, int h, const std::vector<VertexId>& order) {
  const VertexId n = g.num_vertices();
  VertexMask alive(n, true);
  BoundedBfs bfs(n);
  PeelingEngine engine(g, h, &alive, &bfs, n);
  for (VertexId i = 0; i < n; ++i) engine.Seed(order[i], i);
  BallPolicy policy(&engine, n);
  engine.Peel(0, n, policy);
  return policy.balls;
}

TEST(PeelingEngine, BallSizeOnPathCountsAliveVerticesWithinRadius) {
  // Path 0-1-2-3-4-5-6 at h = 3. Removing 3 first sees the full path
  // around it; removing 2 next no longer counts the dead 3, and removing 0
  // after 1 sees only itself.
  const Graph g = Path(7);
  const auto balls = BallSizesInOrder(g, 3, {3, 2, 1, 0, 4, 5, 6});
  EXPECT_EQ(balls[3], (std::vector<uint32_t>{1, 3, 5, 7}));
  EXPECT_EQ(balls[2], (std::vector<uint32_t>{1, 2, 3, 3}));
  EXPECT_EQ(balls[1], (std::vector<uint32_t>{1, 2, 2, 2}));
  EXPECT_TRUE(balls[0].empty());  // no alive neighbor: never asked
  EXPECT_EQ(balls[4], (std::vector<uint32_t>{1, 2, 3, 3}));
}

TEST(PeelingEngine, BallSizeOnStarReachesLeavesThroughTheHub) {
  // Star with hub 0 and leaves 1..5 at h = 2: a leaf's radius-1 ball is
  // itself and the hub, its radius-2 ball the whole star. Once the hub is
  // gone, the remaining leaves are isolated.
  const Graph g = gen::Star(6);
  auto balls = BallSizesInOrder(g, 2, {1, 2, 0, 3, 4, 5});
  EXPECT_EQ(balls[1], (std::vector<uint32_t>{1, 2, 6}));
  EXPECT_EQ(balls[2], (std::vector<uint32_t>{1, 2, 5}));
  EXPECT_EQ(balls[0], (std::vector<uint32_t>{1, 4, 4}));
  EXPECT_TRUE(balls[3].empty());

  balls = BallSizesInOrder(g, 2, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(balls[0], (std::vector<uint32_t>{1, 6, 6}));
}

/// Lazy policy in the shape of h-LB's: every vertex starts lazy, and its
/// first pop materializes the h-degree. Above the bucket it is re-queued;
/// at most the bucket it is peeled at once with the materializing BFS.
struct FusedPopPolicy : PeelPolicyBase {
  FusedPopPolicy(PeelingEngine* e, VertexId n)
      : e(e), lazy(n, 1), core(n, 0) {}
  bool OnPop(VertexId v, uint32_t k) {
    if (lazy[v]) {
      lazy[v] = 0;
      const uint32_t hd = e->Materialize(v);
      if (hd > k) {
        e->Requeue(v, hd, k);
        return false;
      }
    }
    core[v] = k;
    return true;
  }
  PeelAction OnNeighbor(VertexId, int, uint32_t) { return PeelAction::kSkip; }
  PeelingEngine* e;
  std::vector<uint8_t> lazy;
  std::vector<uint32_t> core;
};

TEST(PeelingEngine, MaterializedVertexAtOrBelowBucketIsPeeledByThatBfs) {
  // Star, hub 0 and leaves 1..4, at h = 2: every h-degree is 4, and so is
  // every core. Seeded lazily at 4, each pop materializes a degree <= 4
  // and peels the vertex with that one BFS over the vertices still alive:
  // 5 pops and 4 + 3 + 2 + 1 + 0 visits (a re-queue and a second BFS
  // would make it 10 pops and 20 visits).
  const Graph g = gen::Star(5);
  VertexMask alive(5, true);
  BoundedBfs bfs(5);
  PeelingEngine engine(g, 2, &alive, &bfs, 5);
  for (VertexId v = 0; v < 5; ++v) engine.Seed(v, 4);
  FusedPopPolicy policy(&engine, g.num_vertices());
  engine.Peel(0, 5, policy);
  EXPECT_EQ(policy.core, (std::vector<uint32_t>{4, 4, 4, 4, 4}));
  EXPECT_EQ(engine.stats().pops, 5u);
  EXPECT_EQ(engine.stats().hdegree_computations, 5u);
  EXPECT_EQ(bfs.total_visited(), 10u);
  EXPECT_EQ(alive.num_alive(), 0u);
}

TEST(PeelingEngine, RequeuedVertexCollectsAfreshWhenPeeled) {
  // The same star seeded at 0: every materialization (4 visits each) finds
  // 4 > 0 and re-queues. The removals at bucket 4 must each run their own
  // BFS over the shrunken alive set — the hub, popped first, sees the 4
  // leaves; each leaf after it sees nobody — not reuse a stale ball.
  const Graph g = gen::Star(5);
  VertexMask alive(5, true);
  BoundedBfs bfs(5);
  PeelingEngine engine(g, 2, &alive, &bfs, 5);
  for (VertexId v = 0; v < 5; ++v) engine.Seed(v, 0);
  FusedPopPolicy policy(&engine, g.num_vertices());
  engine.Peel(0, 5, policy);
  EXPECT_EQ(policy.core, (std::vector<uint32_t>{4, 4, 4, 4, 4}));
  EXPECT_EQ(engine.stats().pops, 10u);
  EXPECT_EQ(engine.stats().hdegree_computations, 5u);
  EXPECT_EQ(bfs.total_visited(), 5u * 4u + 4u);
}

TEST(PeelingEngine, LbLossExcludesTheNeighborItself) {
  // Tail 0-1 hanging off the triangle {2, 3, 4} at vertex 2, h = 2. Cores
  // are 2 for vertex 0 and 3 for the rest. Seeds: vertex 1 at 0, vertex 0
  // at 2, the triangle at 3.
  //   bucket 0: 1 materializes h-degree 4 and is re-queued at 4 (exact);
  //   bucket 2: 0 materializes 2 and is peeled. Its neighbor 1 is at
  //             distance 1 = h - 1, so 1 lies in B(0, 1) = {0, 1} and loses
  //             at most |B(0, 1)| - 1 = 1: its key drops to 3, still above
  //             the floor 2 + 1, so 1 stays a valid bound (kApprox). A loss
  //             of 2 would demote 1 to its seed and cost a pop and a BFS;
  //   bucket 3: 1 (3 visits), then the triangle (2 + 1 + 0), each peeled
  //             by its materializing BFS.
  GraphBuilder b(5);
  for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}) {
    b.AddEdge(u, v);
  }
  const Graph g = b.Build();
  const std::vector<uint32_t> seeds{2, 0, 3, 3, 3};
  KhCoreOptions opts;
  opts.h = 2;
  opts.algorithm = KhCoreAlgorithm::kLb;
  opts.lower_bound = LowerBoundMode::kNone;
  opts.extra_lower_bound = &seeds;
  opts.ordering = VertexOrdering::kNone;
  const KhCoreResult r = KhCoreDecomposition(g, opts);
  EXPECT_EQ(r.core, (std::vector<uint32_t>{2, 3, 3, 3, 3}));
  EXPECT_EQ(r.core, BruteForceKhCore(g, 2));
  EXPECT_EQ(r.stats.pops, 6u);
  EXPECT_EQ(r.stats.hdegree_computations, 6u);
  EXPECT_EQ(r.stats.visited_vertices, 4u + 2u + 3u + 2u + 1u + 0u);
  EXPECT_EQ(r.stats.decrement_updates, 1u);
}

// ---------------------------------------------------------------------------
// Orderings / Graph::Relabeled (cache-locality pass).
// ---------------------------------------------------------------------------

bool IsPermutation(const std::vector<VertexId>& p, VertexId n) {
  if (p.size() != n) return false;
  std::vector<uint8_t> seen(n, 0);
  for (VertexId v : p) {
    if (v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

// Policy mirroring the localized maintenance peel (core/incremental.cc):
// region vertices peel normally, pinned vertices are scheduled removals.
struct RegionTestPolicy : PeelPolicyBase {
  RegionTestPolicy(const std::vector<uint8_t>& pinned,
                   std::vector<uint32_t>* out, int h)
      : pinned(pinned), out(out), h(h) {}

  bool OnPop(VertexId v, uint32_t k) {
    if (!pinned[v]) (*out)[v] = k;
    return true;
  }
  PeelAction OnNeighbor(VertexId u, int dist, uint32_t) {
    if (pinned[u]) return PeelAction::kSkip;
    return dist < h ? PeelAction::kRecompute : PeelAction::kDecrement;
  }

  const std::vector<uint8_t>& pinned;
  std::vector<uint32_t>* out;
  int h;
};

TEST(PeelingEngine, PeelRegionWithPinnedBoundaryMatchesFullRun) {
  // Pin everything within distance h of an arbitrary region at its TRUE
  // core index and re-peel only the region, rest of the graph dead: the
  // PeelRegion entry point must reassign every region vertex its exact
  // core. (The graph is unchanged, so any region is a valid superset of
  // the — empty — changed set; this isolates the engine mechanics from
  // candidate-region discovery.)
  for (int h : {1, 2, 3}) {
    for (const RandomGraphSpec& spec : Corpus(60, 1)) {
      Graph g = MakeRandomGraph(spec);
      const VertexId n = g.num_vertices();
      const std::vector<uint32_t> truth = FreshCores(g, h);

      std::vector<VertexId> region;
      for (VertexId v = spec.seed % 3; v < n; v += 3) region.push_back(v);
      std::vector<uint8_t> in_region(n, 0);
      for (VertexId v : region) in_region[v] = 1;
      VertexMask mask(n, false);
      std::vector<uint8_t> pinned(n, 0);
      std::vector<VertexId> boundary;
      VertexMask all(n, true);
      BoundedBfs bfs(n);
      for (VertexId v : region) {
        mask.Revive(v);
        bfs.Run(g, all, v, h, [&](VertexId u, int) {
          if (!in_region[u] && !pinned[u]) {
            pinned[u] = 1;
            boundary.push_back(u);
          }
        });
      }
      for (VertexId b : boundary) mask.Revive(b);

      PeelingEngine engine(g, h, &mask, &bfs, n > 0 ? n : 1);
      std::vector<uint32_t> out(n, 0xDEADu);
      RegionTestPolicy policy(pinned, &out, h);
      engine.PeelRegion(region, boundary, truth, policy);
      for (VertexId v : region) {
        ASSERT_EQ(out[v], truth[v]) << spec.Name() << " h=" << h << " v=" << v;
      }
    }
  }
}

TEST(Ordering, BfsOrderIsPermutationSeededAtAHub) {
  for (const auto& spec : Corpus(50, 1)) {
    Graph g = MakeRandomGraph(spec);
    std::vector<VertexId> order = BfsOrder(g);
    ASSERT_TRUE(IsPermutation(order, g.num_vertices())) << spec.Name();
    // The first component's BFS starts at a maximum-degree vertex.
    uint32_t max_degree = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      max_degree = std::max(max_degree, g.degree(v));
    }
    EXPECT_EQ(g.degree(order[0]), max_degree) << spec.Name();
  }
}

TEST(Ordering, InvertPermutationRoundTrips) {
  std::vector<VertexId> perm{3, 1, 4, 0, 2};
  std::vector<VertexId> inv = InvertPermutation(perm);
  for (VertexId i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
    EXPECT_EQ(perm[inv[i]], i);
  }
}

TEST(Relabeled, PreservesEdgesUnderPermutation) {
  for (const auto& spec : Corpus(40, 2)) {
    Graph g = MakeRandomGraph(spec);
    std::vector<VertexId> order = BfsOrder(g);
    Graph r = g.Relabeled(order);
    ASSERT_EQ(r.num_vertices(), g.num_vertices());
    ASSERT_EQ(r.num_edges(), g.num_edges());
    std::vector<VertexId> old_to_new = InvertPermutation(order);
    for (const auto& [u, v] : g.Edges()) {
      EXPECT_TRUE(r.HasEdge(old_to_new[u], old_to_new[v]))
          << spec.Name() << " edge " << u << "-" << v;
    }
  }
}

TEST(Relabeled, IdentityPermutationIsANoOp) {
  Graph g = gen::PaperFigure1();
  std::vector<VertexId> identity(g.num_vertices());
  std::iota(identity.begin(), identity.end(), 0);
  Graph r = g.Relabeled(identity);
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.Edges(), g.Edges());
}

TEST(Ordering, MeanNeighborGapSeparatesScrambledFromLocalIds) {
  // A long path in natural order: every neighbor is one id away.
  Graph path = Path(20000);
  EXPECT_LT(MeanNeighborGapFraction(path), 0.01);
  // The same path under a random permutation: gaps jump to ~n/3.
  EXPECT_GT(MeanNeighborGapFraction(
                ScrambledIds(path, path.num_vertices(), /*seed=*/23)),
            0.25);
  // Degenerate inputs.
  EXPECT_EQ(MeanNeighborGapFraction(Graph()), 0.0);
  EXPECT_EQ(MeanNeighborGapFraction(path, 0), 0.0);
}

// Per-component scoring (the kAuto fix for disconnected graphs): gaps are
// judged against the component they live in, not the global vertex count.

TEST(Ordering, PerComponentGapFlagsScrambledComponentBlocks) {
  // 8 components of 8192 vertices, each occupying a contiguous id block but
  // scrambled WITHIN its block. The historical global statistic scored this
  // ~ (8192/3) / 65536 ≈ 0.04 — "well ordered" — even though every BFS
  // walk thrashes; per-component scoring sees ~1/3 per block.
  constexpr VertexId kBlock = 8192;
  constexpr VertexId kBlocks = 8;
  Rng rng(41);
  GraphBuilder b(kBlock * kBlocks);
  for (VertexId c = 0; c < kBlocks; ++c) {
    std::vector<VertexId> ids(kBlock);
    std::iota(ids.begin(), ids.end(), c * kBlock);
    for (VertexId i = kBlock; i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextIndex(i)]);
    }
    for (VertexId i = 0; i + 1 < kBlock; ++i) b.AddEdge(ids[i], ids[i + 1]);
  }
  Graph g = b.Build();
  EXPECT_GT(MeanNeighborGapFraction(g), kScrambledGapFraction);
}

TEST(Ordering, HashedIdMultiComponentRelabels) {
  // 64 small paths under one global hashed permutation: every component's
  // ids are scattered across the whole range, so each component is smaller
  // than the locality window but its gaps span the graph. kAuto must
  // relabel (BFS order makes each component id-contiguous again).
  constexpr VertexId kComponents = 64;
  constexpr VertexId kSize = 256;
  GraphBuilder b(kComponents * kSize);
  for (VertexId c = 0; c < kComponents; ++c) {
    for (VertexId i = 0; i + 1 < kSize; ++i) {
      b.AddEdge(c * kSize + i, c * kSize + i + 1);
    }
  }
  Graph contiguous = b.Build();
  Graph hashed =
      ScrambledIds(contiguous, contiguous.num_vertices(), /*seed=*/43);
  EXPECT_GT(MeanNeighborGapFraction(hashed), kScrambledGapFraction);
  // The same components in contiguous generator order stay unrelabeled:
  // every gap is tiny against the locality window.
  EXPECT_LT(MeanNeighborGapFraction(contiguous), kScrambledGapFraction);
}

class OrderingInvariance
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(OrderingInvariance, AutoRelabelProducesIdenticalCores) {
  const auto& [spec, h] = GetParam();
  // Scattered over 4096 ids, the corpus graph looks scrambled to kAuto,
  // which then peels a BFS-relabeled copy and maps the cores back.
  Graph g = ScrambledIds(MakeRandomGraph(spec), kGapLocalityWindow,
                         spec.seed * 31 + 7);
  ASSERT_GT(MeanNeighborGapFraction(g), kScrambledGapFraction) << spec.Name();
  KhCoreOptions base;
  base.h = h;
  base.ordering = VertexOrdering::kNone;
  KhCoreResult expect = KhCoreDecomposition(g, base);
  // The spectrum sweep passes its ordering to KhCoreDecomposition at every
  // level.
  SpectrumOptions sweep;
  sweep.max_h = h;
  sweep.base.ordering = VertexOrdering::kNone;
  const SpectrumResult expect_sweep = KhCoreSpectrum(g, sweep);
  EXPECT_EQ(expect_sweep.core.back(), expect.core) << spec.Name();
  sweep.base.ordering = VertexOrdering::kAuto;
  const SpectrumResult swept = KhCoreSpectrum(g, sweep);
  EXPECT_EQ(swept.core, expect_sweep.core) << spec.Name();
  EXPECT_EQ(swept.degeneracy, expect_sweep.degeneracy);
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreOptions opts;
    opts.h = h;
    opts.ordering = VertexOrdering::kAuto;
    opts.algorithm = alg;
    KhCoreResult r = KhCoreDecomposition(g, opts);
    EXPECT_EQ(r.core, expect.core) << spec.Name() << " " << ToString(alg);
    EXPECT_EQ(r.degeneracy, expect.degeneracy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, OrderingInvariance,
    ::testing::Combine(::testing::ValuesIn(Corpus(48, 1)),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(OrderingInvariance, ExtraBoundsArePermutedWithTheGraph) {
  // Feed the h=2 cores as an external lower bound for h=3 (core indexes are
  // monotone in h) on ids kAuto relabels; the bound must be permuted
  // internally.
  RandomGraphSpec spec{"ba", 60, 3};
  Graph g = ScrambledIds(MakeRandomGraph(spec), kGapLocalityWindow, 5);
  ASSERT_GT(MeanNeighborGapFraction(g), kScrambledGapFraction);
  KhCoreOptions h2;
  h2.h = 2;
  KhCoreResult level2 = KhCoreDecomposition(g, h2);

  KhCoreOptions plain;
  plain.h = 3;
  plain.ordering = VertexOrdering::kNone;
  KhCoreResult expect = KhCoreDecomposition(g, plain);

  KhCoreOptions seeded;
  seeded.h = 3;
  seeded.ordering = VertexOrdering::kAuto;
  seeded.extra_lower_bound = &level2.core;
  KhCoreResult r = KhCoreDecomposition(g, seeded);
  EXPECT_EQ(r.core, expect.core);
}

}  // namespace
}  // namespace hcore
