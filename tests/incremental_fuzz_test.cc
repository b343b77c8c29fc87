// Randomized equivalence fuzzing for localized dynamic (k,h)-core
// maintenance through the one write front door, HCoreIndex: 200+
// insert/delete/mixed single-edit sequences (InsertEdge/DeleteEdge) and
// batched sequences (ApplyBatch), asserting exact equality with a fresh
// decomposition at every level after EVERY step and that the
// localized/fallback counters always account for every dirty level. Region
// caps are swept so the localized path, the overflow fallback, and the
// disabled path are all exercised. The TSan CI leg runs this suite (the
// concurrency tests at the bottom are its target).

#include "core/incremental.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/ordering.h"
#include "index/hcore_index.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::FreshCores;
using ::hcore::testing::IndexOptions;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomBatch;
using ::hcore::testing::RandomGraphSpec;
using ::hcore::testing::ScrambledIds;

enum class EditMode { kInsertOnly, kDeleteOnly, kMixed };

/// One fuzz sequence: random single edits against an HCoreIndex with
/// max_h = h, every level cross-checked against a fresh decomposition at
/// every step. Adds the number of applied updates to `*applied_out` (void
/// return: gtest ASSERTs live here).
void RunDynamicSequence(const RandomGraphSpec& spec, int h, EditMode mode,
                        const LocalizedUpdateOptions& localized, int steps,
                        uint64_t* applied_out = nullptr) {
  HCoreIndexOptions iopts = IndexOptions(h);
  iopts.localized = localized;
  HCoreIndex index(MakeRandomGraph(spec), iopts);
  Rng rng(spec.seed * 9176 + static_cast<uint64_t>(h) * 131 +
          static_cast<uint64_t>(mode));
  uint64_t applied = 0;
  for (int step = 0; step < steps; ++step) {
    const auto before = index.snapshot();
    const Graph& g = before->graph();
    const VertexId n = g.num_vertices();
    const bool insert = mode == EditMode::kInsertOnly ||
                        (mode == EditMode::kMixed && rng.NextBool(0.5));
    bool ok = false;
    if (insert) {
      // +2 occasionally grows the vertex set through an update.
      ok = index.InsertEdge(rng.NextIndex(n + 2), rng.NextIndex(n + 2));
    } else {
      auto edges = g.Edges();
      if (edges.empty()) continue;
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      ok = index.DeleteEdge(u, v);
    }
    if (ok) ++applied;
    const auto snap = index.snapshot();
    for (int level = 1; level <= h; ++level) {
      const std::vector<uint32_t> fresh = FreshCores(snap->graph(), level);
      ASSERT_EQ(snap->Cores(level), fresh)
          << spec.Name() << " h=" << level << "/" << h
          << " mode=" << static_cast<int>(mode) << " step=" << step;
      uint32_t degeneracy = 0;
      for (uint32_t c : fresh) degeneracy = std::max(degeneracy, c);
      ASSERT_EQ(snap->Degeneracy(level), degeneracy);
    }
    // Every level of every applied update was served by exactly one of
    // the two paths.
    const HCoreIndexStats stats = index.stats();
    ASSERT_EQ(stats.localized_updates + stats.fallback_repeels,
              static_cast<uint64_t>(h) * applied);
  }
  if (applied_out != nullptr) *applied_out += applied;
}

TEST(DynamicFuzz, LocalizedPathMatchesFreshRunsAcrossEditModes) {
  // 162 sequences; graphs are small enough (region always under the
  // default cap) that every update must take the localized path.
  uint64_t applied = 0;
  for (const RandomGraphSpec& spec : Corpus(36, 3)) {
    for (int h : {1, 2, 3}) {
      for (EditMode mode :
           {EditMode::kInsertOnly, EditMode::kDeleteOnly, EditMode::kMixed}) {
        LocalizedUpdateOptions localized_opts;  // defaults
        RunDynamicSequence(spec, h, mode, localized_opts, 8, &applied);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(applied, 500u);
}

TEST(DynamicFuzz, FallbackHeavyMixedSequencesApplyAndMatchFresh) {
  // Mixed edit sequences under a tiny region cap: most updates take the
  // warm whole-graph fallback. Every step must match a fresh decomposition,
  // and enough edits must apply for the sequences to mean something.
  LocalizedUpdateOptions tiny;
  tiny.max_region_fraction = 0.0;
  tiny.min_region_cap = 4;
  uint64_t applied = 0;
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    for (int h : {1, 2, 3}) {
      RunDynamicSequence(spec, h, EditMode::kMixed, tiny, 6, &applied);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(applied, 100u);
}

TEST(DynamicFuzz, TinyRegionCapForcesFallbackMixture) {
  // 36 sequences under a 4-vertex region cap: overflow is common, so both
  // the localized path and the warm fallback serve updates — and both must
  // stay exact. (The counter-sum assertion runs inside the sequence.)
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    for (int h : {1, 2, 3}) {
      LocalizedUpdateOptions tiny;
      tiny.max_region_fraction = 0.0;
      tiny.min_region_cap = 4;
      RunDynamicSequence(spec, h, EditMode::kMixed, tiny, 8);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DynamicFuzz, DisabledLocalizedPathStillExactAndCounted) {
  // 12 sequences with the localized path off: every level of every batch
  // re-peels the whole graph, pure-insert levels seeded by the old cores
  // and every other level from its own bounds, up to h = 3.
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    LocalizedUpdateOptions off;
    off.enable = false;
    RunDynamicSequence(spec, 3, EditMode::kMixed, off, 6);
    if (HasFatalFailure()) return;
  }
}

TEST(DynamicFuzz, DefaultCapKeepsSmallGraphUpdatesFullyLocalized) {
  // On a 36-vertex graph the default cap (min_region_cap = 64) can never
  // overflow: every level of every applied update must report localized,
  // none fallback.
  RandomGraphSpec spec{"ba", 36, 5};
  HCoreIndex index(MakeRandomGraph(spec), HCoreIndexOptions{});  // max_h 2
  Rng rng(77);
  uint64_t applied = 0;
  for (int step = 0; step < 16; ++step) {
    const auto before = index.snapshot();
    const Graph& g = before->graph();
    const VertexId n = g.num_vertices();
    if (rng.NextBool(0.5)) {
      applied += index.InsertEdge(rng.NextIndex(n), rng.NextIndex(n)) ? 1 : 0;
    } else {
      auto edges = g.Edges();
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      applied += index.DeleteEdge(u, v) ? 1 : 0;
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(index.stats().localized_updates, 2 * applied);
  EXPECT_EQ(index.stats().fallback_repeels, 0u);
  const auto snap = index.snapshot();
  EXPECT_EQ(snap->Cores(2), FreshCores(snap->graph(), 2));
}

TEST(IndexFuzz, SpliceMatchesBuilderRebuildEveryStep) {
  // The splice-vs-rebuild differential: the index maintains its graph by
  // splicing each batch into a copy; a reference edge set replayed with the
  // same last-edit-wins semantics and rebuilt from scratch through
  // GraphBuilder must produce equal edge lists — and equal cores — after
  // EVERY batch.
  for (const RandomGraphSpec& spec : Corpus(90, 2)) {
    Graph g = MakeRandomGraph(spec);
    HCoreIndex index(Graph(g), IndexOptions(2));
    std::set<std::pair<VertexId, VertexId>> edge_set;
    for (const auto& e : g.Edges()) edge_set.insert(e);
    VertexId n = g.num_vertices();
    Rng rng(spec.seed * 517 + 3);
    for (int step = 0; step < 6; ++step) {
      auto batch = RandomBatch(index.snapshot()->graph(), &rng, 5, 5);
      index.ApplyBatch(batch);
      for (const EdgeEdit& e : batch) {
        if (e.u == e.v) continue;
        auto key = std::minmax(e.u, e.v);
        if (e.insert) {
          edge_set.insert({key.first, key.second});
          n = std::max(n, key.second + 1);
        } else {
          edge_set.erase({key.first, key.second});
        }
      }
      GraphBuilder b(n);
      for (const auto& [u, v] : edge_set) b.AddEdge(u, v);
      Graph reference = b.Build();
      const Graph& spliced = index.snapshot()->graph();
      ASSERT_EQ(spliced.num_vertices(), reference.num_vertices())
          << spec.Name() << " step=" << step;
      ASSERT_EQ(spliced.Edges(), reference.Edges())
          << spec.Name() << " step=" << step;
      for (int h = 1; h <= 2; ++h) {
        ASSERT_EQ(index.snapshot()->Cores(h), FreshCores(reference, h))
            << spec.Name() << " step=" << step << " h=" << h;
      }
    }
  }
}

/// Applies `rounds` random batches to `index` and checks every level
/// against a fresh decomposition after each one. Batch kinds cycle through
/// `kinds` (0 pure-insert, 1 pure-delete, 2 mixed), with 1..6 edits of each
/// kind, so sizes sometimes exceed a small localized batch cap. Adds the
/// levels served by each path to `*localized` and `*fallback`.
void CheckBatches(HCoreIndex& index, int max_h, Rng* rng, int rounds,
                  const std::vector<int>& kinds, const std::string& label,
                  uint64_t* localized, uint64_t* fallback) {
  for (int round = 0; round < rounds; ++round) {
    const int size = 1 + static_cast<int>(rng->NextIndex(6));
    const int kind = kinds[round % kinds.size()];
    const int inserts = kind == 1 ? 0 : size;
    const int deletes = kind == 0 ? 0 : size;
    const HCoreIndexStats before = index.stats();
    auto batch = RandomBatch(index.snapshot()->graph(), rng, inserts, deletes);
    const size_t applied = index.ApplyBatch(batch);
    const HCoreIndexStats after = index.stats();
    const uint64_t loc = after.localized_updates - before.localized_updates;
    const uint64_t fb = after.fallback_repeels - before.fallback_repeels;
    if (applied > 0) {
      // Every dirty level was served by exactly one of the two paths.
      ASSERT_EQ(loc + fb, static_cast<uint64_t>(max_h))
          << label << " round=" << round;
    } else {
      ASSERT_EQ(loc + fb, 0u);
    }
    *localized += loc;
    *fallback += fb;
    auto snap = index.snapshot();
    for (int h = 1; h <= max_h; ++h) {
      ASSERT_EQ(snap->Cores(h), FreshCores(snap->graph(), h))
          << label << " round=" << round << " h=" << h;
      uint32_t degeneracy = 0;
      for (uint32_t c : snap->Cores(h)) {
        degeneracy = std::max(degeneracy, c);
      }
      ASSERT_EQ(snap->Degeneracy(h), degeneracy);
    }
  }
}

TEST(IndexFuzz, ApplyBatchMatchesFreshAndLevelCountersBalance) {
  // A small-world graph with its 5000 ids scrambled scores a high id gap,
  // so kAuto relabels the build and every warm fallback; the corpus graphs
  // are too small for kAuto to relabel.
  Rng ws_rng(19);
  const Graph scrambled =
      ScrambledIds(gen::WattsStrogatz(5000, 3, 0.1, &ws_rng), 5000, 23);
  ASSERT_GT(MeanNeighborGapFraction(scrambled), kScrambledGapFraction);
  for (VertexOrdering ordering :
       {VertexOrdering::kNone, VertexOrdering::kAuto}) {
    const std::string name =
        "ordering=" + std::to_string(static_cast<int>(ordering)) + " ";
    // Small caps so overflow fallback and the batch-size gate both fire on
    // these graphs, alongside genuinely localized levels.
    auto options = [ordering](int max_h) {
      HCoreIndexOptions iopts = IndexOptions(max_h);
      iopts.base.ordering = ordering;
      iopts.localized.max_region_fraction = 0.3;
      iopts.localized.min_region_cap = 8;
      iopts.localized.max_batch = 4;
      return iopts;
    };
    uint64_t total_localized = 0;
    uint64_t total_fallback = 0;
    for (const RandomGraphSpec& spec : Corpus(40, 2)) {
      HCoreIndex index(MakeRandomGraph(spec), options(/*max_h=*/3));
      Rng rng(spec.seed * 523 + 11);
      CheckBatches(index, /*max_h=*/3, &rng, /*rounds=*/6, /*kinds=*/{0, 1, 2},
                   name + spec.Name(), &total_localized, &total_fallback);
    }
    // The sweep genuinely exercised both paths.
    EXPECT_GT(total_localized, 0u) << name;
    EXPECT_GT(total_fallback, 0u) << name;

    HCoreIndex index(scrambled, options(/*max_h=*/2));
    Rng rng(311);
    uint64_t scrambled_localized = 0;
    uint64_t scrambled_fallback = 0;
    CheckBatches(index, /*max_h=*/2, &rng, /*rounds=*/3, /*kinds=*/{2},
                 name + "scrambled_ws5000", &scrambled_localized,
                 &scrambled_fallback);
    EXPECT_GT(scrambled_fallback, 0u) << name;
    // A pure-insert batch over the batch cap falls back warm with the old
    // cores as its lower bound, which kAuto permutes into its relabel.
    const HCoreIndexStats before = index.stats();
    const auto inserts = RandomBatch(index.snapshot()->graph(), &rng,
                                     /*inserts=*/6, /*deletes=*/0);
    ASSERT_EQ(index.ApplyBatch(inserts), inserts.size()) << name;
    ASSERT_EQ(index.stats().fallback_repeels - before.fallback_repeels, 2u)
        << name;
    for (int h = 1; h <= 2; ++h) {
      ASSERT_EQ(index.snapshot()->Cores(h),
                FreshCores(index.snapshot()->graph(), h))
          << name << " h=" << h;
    }
  }
}

TEST(IndexFuzz, SmallBatchCapReplayMatchesFresh) {
  // Insert, delete and mixed batches of up to 6 edits against a batch cap
  // of 4 and a region cap of 0.3 * n: both the localized path and the warm
  // fallback serve levels, every applied batch accounts for all kMaxH
  // levels, and every level matches a fresh decomposition after each batch.
  constexpr int kMaxH = 3;
  uint64_t total_localized = 0;
  uint64_t total_fallback = 0;
  for (const RandomGraphSpec& spec : Corpus(40, 3)) {
    HCoreIndexOptions iopts = IndexOptions(kMaxH);
    iopts.localized.max_region_fraction = 0.3;
    iopts.localized.min_region_cap = 8;
    iopts.localized.max_batch = 4;
    HCoreIndex index(MakeRandomGraph(spec), iopts);
    Rng rng(spec.seed * 1171 + 29);
    for (int round = 0; round < 6; ++round) {
      const int size = 1 + static_cast<int>(rng.NextIndex(6));
      const int kind = round % 3;
      const HCoreIndexStats before = index.stats();
      auto batch = RandomBatch(index.snapshot()->graph(), &rng,
                               kind == 1 ? 0 : size, kind == 0 ? 0 : size);
      const size_t applied = index.ApplyBatch(batch);
      const HCoreIndexStats after = index.stats();
      const uint64_t loc = after.localized_updates - before.localized_updates;
      const uint64_t fb = after.fallback_repeels - before.fallback_repeels;
      ASSERT_EQ(loc + fb, applied > 0 ? static_cast<uint64_t>(kMaxH) : 0u)
          << spec.Name() << " round=" << round;
      total_localized += loc;
      total_fallback += fb;
      auto snap = index.snapshot();
      for (int h = 1; h <= kMaxH; ++h) {
        ASSERT_EQ(snap->Cores(h), FreshCores(snap->graph(), h))
            << spec.Name() << " round=" << round << " h=" << h;
      }
    }
  }
  EXPECT_GT(total_localized, 0u);
  EXPECT_GT(total_fallback, 0u);
}

TEST(IndexFuzz, ConcurrentSnapshotReadersDuringLocalizedUpdates) {
  Rng rng(19);
  Graph g = gen::PlantedPartition(4, 30, 0.4, 0.03, &rng);
  // Default localized caps: single edits stay localized.
  HCoreIndex index(g, IndexOptions(3));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      auto snap = index.snapshot();
      const uint64_t epoch = snap->epoch();
      const VertexId n = snap->graph().num_vertices();
      for (VertexId v = 0; v < n; v += 5) {
        std::vector<uint32_t> s = snap->Spectrum(v);
        for (size_t i = 1; i < s.size(); ++i) {
          if (s[i - 1] > s[i]) failed.store(true);
        }
      }
      for (int h = 1; h <= 3; ++h) {
        if (snap->Cores(h).size() != n) failed.store(true);
      }
      (void)snap->Hierarchy(2);
      if (snap->epoch() != epoch) failed.store(true);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  Rng update_rng(23);
  uint64_t applied = 0;
  for (int step = 0; step < 40; ++step) {
    auto snap = index.snapshot();
    const VertexId n = snap->graph().num_vertices();
    if (update_rng.NextBool(0.5)) {
      applied += index.InsertEdge(update_rng.NextIndex(n),
                                  update_rng.NextIndex(n))
                     ? 1
                     : 0;
    } else {
      auto edges = snap->graph().Edges();
      if (edges.empty()) continue;
      auto [u, v] =
          edges[update_rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      applied += index.DeleteEdge(u, v) ? 1 : 0;
    }
  }
  while (reads.load(std::memory_order_relaxed) < 50) {
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(applied, 0u);
  // Single-edge updates on a graph this size are served localized.
  EXPECT_GT(index.stats().localized_updates, 0u);
  auto snap = index.snapshot();
  for (int h = 1; h <= 3; ++h) {
    EXPECT_EQ(snap->Cores(h), FreshCores(snap->graph(), h));
  }
}

}  // namespace
}  // namespace hcore
