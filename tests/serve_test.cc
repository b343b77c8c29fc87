// Serving front-door suite: every answer of a ShardedHCoreService view —
// cores, spectra, degeneracies, densest-level tables, components and
// communities — must equal a bare HCoreIndex snapshot fed the same batches,
// on four graph families (BA, clustered, disconnected, star-heavy), on the
// initial build and after mixed ApplyBatch sequences. Also covers group
// commit, copy-on-write page sharing across epochs, counters and stats
// reset, and readers racing a writer (a TSan leg target).

#include "serve/sharded_service.h"

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/community.h"
#include "graph/generators.h"
#include "index/hcore_index.h"
#include "test_util.h"

namespace hcore {
namespace {

constexpr int kMaxH = 3;

struct Family {
  std::string name;
  std::function<Graph()> make;
};

std::vector<Family> Families() {
  return {
      {"ba",
       [] {
         Rng rng(11);
         return gen::BarabasiAlbert(120, 3, &rng);
       }},
      {"clustered",
       [] {
         Rng rng(12);
         return gen::CliqueOverlay(150, 70, 3, 12, 2.0, &rng);
       }},
      // p_out = 0: three components that only edits can connect.
      {"disconnected",
       [] {
         Rng rng(13);
         return gen::PlantedPartition(3, 40, 0.4, 0.0, &rng);
       }},
      {"star",
       [] {
         Rng rng(14);
         return gen::StarHeavySocial(140, 400, 3, 0.5, &rng);
       }},
  };
}

HCoreIndexOptions IndexOptions() {
  HCoreIndexOptions opts;
  opts.max_h = kMaxH;
  return opts;
}

ShardedServiceOptions ServiceOptions() {
  ShardedServiceOptions opts;
  opts.index = IndexOptions();
  return opts;
}

/// Every query type of `view` against the bare-index snapshot `snap`:
/// components over the whole level range (k = 0 through one past the
/// vertex's own core) and sampled communities, including queries that span
/// components on the disconnected family.
void AssertEquivalent(const ShardedServiceView& view,
                      const HCoreSnapshot& snap, uint64_t seed,
                      const std::string& label) {
  const VertexId n = snap.graph().num_vertices();
  ASSERT_EQ(view.graph().num_vertices(), n) << label;
  ASSERT_EQ(view.graph().num_edges(), snap.graph().num_edges()) << label;
  Rng rng(seed);
  for (int h = 1; h <= kMaxH; ++h) {
    ASSERT_EQ(view.Degeneracy(h), snap.Degeneracy(h)) << label << " h=" << h;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(view.CoreOf(v, h), snap.CoreOf(v, h))
          << label << " h=" << h << " v=" << v;
    }
    const auto rows = view.TopDensestLevels(h, 5);
    const auto want_rows = snap.TopDensestLevels(h, 5);
    ASSERT_EQ(rows.size(), want_rows.size()) << label << " h=" << h;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].k, want_rows[i].k) << label;
      EXPECT_EQ(rows[i].vertices, want_rows[i].vertices) << label;
      EXPECT_EQ(rows[i].edges, want_rows[i].edges) << label;
      EXPECT_DOUBLE_EQ(rows[i].density, want_rows[i].density) << label;
    }
    for (VertexId v = 0; v < n; v += 3) {
      const uint32_t core = snap.CoreOf(v, h);
      for (uint32_t k : {0u, 1u, core / 2, core, core + 1}) {
        ASSERT_EQ(view.CoreComponentOf(v, k, h),
                  snap.CoreComponentOf(v, k, h))
            << label << " h=" << h << " v=" << v << " k=" << k;
      }
    }
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<VertexId> query{rng.NextIndex(n)};
      if (trial % 2 == 0) query.push_back(rng.NextIndex(n));
      if (trial % 3 == 0) query.push_back(rng.NextIndex(n));
      const CommunityResult got = view.Community(query, h);
      const CommunityResult want = DistanceCocktailPartyFromCores(
          snap.graph(), query, h, snap.Cores(h));
      ASSERT_EQ(got.feasible, want.feasible) << label << " h=" << h;
      ASSERT_EQ(got.vertices, want.vertices) << label << " h=" << h;
      ASSERT_EQ(got.min_h_degree, want.min_h_degree) << label << " h=" << h;
      ASSERT_EQ(got.core_level, want.core_level) << label << " h=" << h;
    }
  }
  for (VertexId v = 0; v < n; v += 7) {
    ASSERT_EQ(view.Spectrum(v), snap.Spectrum(v)) << label << " v=" << v;
  }
}

/// A deterministic mixed batch against the current graph (same helper shape
/// as the index fuzz suite; includes a growth insert now and then).
std::vector<EdgeEdit> MixedBatch(const Graph& g, Rng* rng, int size) {
  std::vector<EdgeEdit> batch;
  const VertexId n = g.num_vertices();
  auto edges = g.Edges();
  for (int i = 0; i < size; ++i) {
    if (rng->NextBool(0.55) || edges.empty()) {
      batch.push_back(
          EdgeEdit::Insert(rng->NextIndex(n + 1), rng->NextIndex(n + 1)));
    } else {
      auto [u, v] = edges[rng->NextIndex(static_cast<uint32_t>(edges.size()))];
      batch.push_back(EdgeEdit::Delete(u, v));
    }
  }
  return batch;
}

TEST(ServeDifferential, ViewsMatchBareIndexAcrossFamiliesAndMixedBatches) {
  // Round 0 is the initial build; rounds 1-4 first apply one mixed batch of
  // growing size to both the service and the bare index.
  for (const Family& family : Families()) {
    HCoreIndex oracle(family.make(), IndexOptions());
    ShardedHCoreService service(family.make(), ServiceOptions());
    Rng rng(31);
    for (int round = 0; round <= 4; ++round) {
      const std::string label =
          family.name + "/round" + std::to_string(round);
      if (round > 0) {
        const auto batch =
            MixedBatch(service.view()->graph(), &rng, 2 * round);
        ASSERT_EQ(service.ApplyBatch(batch), oracle.ApplyBatch(batch))
            << label;
      }
      const auto view = service.view();
      const auto snap = oracle.snapshot();
      ASSERT_EQ(view->service_epoch(), snap->epoch()) << label;
      AssertEquivalent(*view, *snap, 100 + round, label);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Serve, ShardAccessorsExposeTheOneSnapshot) {
  Rng rng(5);
  ShardedHCoreService service(gen::BarabasiAlbert(60, 3, &rng),
                              ServiceOptions());
  const auto view = service.view();
  EXPECT_EQ(view->num_shards(), 1);
  EXPECT_EQ(&view->shard_snapshot(0), &view->snapshot());
}

TEST(Serve, StatsCountEffectiveBatchesAndResetZeroes) {
  Rng rng(17);
  Graph g = gen::BarabasiAlbert(90, 3, &rng);
  ShardedHCoreService service(Graph(g), ServiceOptions());

  Rng edit_rng(3);
  size_t effective_batches = 0;
  size_t effective_edits = 0;
  for (int round = 0; round < 4; ++round) {
    auto batch = MixedBatch(service.view()->graph(), &edit_rng, 3);
    const size_t applied = service.ApplyBatch(batch);
    if (applied > 0) {
      ++effective_batches;
      effective_edits += applied;
    }
  }
  ASSERT_GT(effective_batches, 0u);

  const ShardedServiceStats stats = service.stats();
  // One page splice per effective batch, and every level of it served by
  // exactly one of the two repair paths.
  EXPECT_EQ(stats.index.batches_applied, effective_batches);
  EXPECT_EQ(stats.index.csr_rebuilds, effective_batches);
  EXPECT_EQ(stats.index.edits_applied, effective_edits);
  EXPECT_EQ(stats.index.localized_updates + stats.index.fallback_repeels,
            effective_batches * kMaxH);
  // This 90-vertex graph fits in a single page, so every effective batch
  // copies it; sharing across epochs is exercised on multi-page graphs in
  // PageSharingAcrossEpochs.
  EXPECT_EQ(stats.memory.pages_copied, effective_batches);
  EXPECT_GT(stats.memory.resident_bytes, 0u);
  EXPECT_GT(stats.memory.graph_pages, 0u);

  const uint64_t epoch_before = service.view()->service_epoch();
  EXPECT_EQ(epoch_before, effective_batches);
  service.ResetStats();
  const ShardedServiceStats zeroed = service.stats();
  EXPECT_EQ(zeroed.index.batches_applied, 0u);
  EXPECT_EQ(zeroed.index.edits_applied, 0u);
  EXPECT_EQ(zeroed.index.decomposition.visited_vertices, 0u);
  // Epoch page-sharing counters reset; resident bytes are a gauge of the
  // currently published graph and stay live.
  EXPECT_EQ(zeroed.memory.pages_shared, 0u);
  EXPECT_EQ(zeroed.memory.pages_copied, 0u);
  EXPECT_GT(zeroed.memory.resident_bytes, 0u);
  // Reset is a counter operation only: the published view is untouched.
  EXPECT_EQ(service.view()->service_epoch(), epoch_before);
}

TEST(Serve, PageSharingAcrossEpochs) {
  // On a multi-page substrate every published epoch shares its untouched
  // pages with the previous one: a 1-edit batch copies at most the two
  // pages holding the endpoints (plus growth tail pages, absent here).
  // Page accounting does not depend on the indexed levels, so one level
  // keeps the 5000-vertex graph cheap to maintain.
  Rng rng(31);
  Graph g = gen::BarabasiAlbert(5000, 3, &rng);
  ShardedServiceOptions opts = ServiceOptions();
  opts.index.max_h = 1;
  ShardedHCoreService service(Graph(g), opts);
  const size_t pages = service.view()->graph().num_pages();
  ASSERT_GT(pages, 3u);

  const int kBatches = 5;
  for (int i = 0; i < kBatches; ++i) {
    VertexId u = static_cast<VertexId>(10 + i), v = 3000;
    while (service.view()->graph().HasEdge(u, v)) ++v;
    const EdgeEdit edit = EdgeEdit::Insert(u, v);
    ASSERT_EQ(service.ApplyBatch({&edit, 1}), 1u);
  }

  const ShardedServiceStats stats = service.stats();
  // Each epoch shared all but <= 2 pages and copied the rest.
  EXPECT_GE(stats.memory.pages_shared, kBatches * (pages - 2));
  EXPECT_LE(stats.memory.pages_copied, kBatches * 2u);
  EXPECT_EQ(stats.memory.graph_pages, pages);
  EXPECT_EQ(stats.memory.resident_bytes,
            service.view()->graph().MemoryBytes());
}

TEST(Serve, GroupCommitCoalescesConcurrentWritersExactly) {
  // Concurrent writers under group commit while readers query: a leader
  // drains the queue and applies one concatenated batch per group. Each
  // writer inserts its own absent edges and deletes its own present edges,
  // so the final state does not depend on arrival order, every writer's
  // attributed count must come back exactly, and the final state must equal
  // a control service that applied the same edits in one sequential batch
  // (and the bare index).
  Rng rng(33);
  Graph g = gen::CliqueOverlay(150, 70, 3, 12, 2.0, &rng);
  const VertexId n = g.num_vertices();

  // Carve disjoint absent edges (inserts) and disjoint present edges
  // (deletes) into per-writer batches.
  const auto edges = g.Edges();
  std::set<std::pair<VertexId, VertexId>> used(edges.begin(), edges.end());
  constexpr int kWriters = 4;
  constexpr int kInserts = 6;
  constexpr int kDeletes = 3;
  constexpr size_t kDeleteStride = 37;
  ASSERT_GT(edges.size(), kDeleteStride * kWriters * kDeletes);
  Rng pick(34);
  std::vector<std::vector<EdgeEdit>> batches(kWriters);
  size_t next_delete = 0;
  for (int w = 0; w < kWriters; ++w) {
    while (batches[w].size() < kInserts) {
      VertexId u = pick.NextIndex(n), v = pick.NextIndex(n);
      if (u == v) continue;
      auto key = std::minmax(u, v);
      if (!used.insert({key.first, key.second}).second) continue;
      batches[w].push_back(EdgeEdit::Insert(u, v));
    }
    for (int d = 0; d < kDeletes; ++d) {
      // Spread the deletes over the edge list; distinct indexes keep them
      // disjoint across writers.
      const auto [u, v] = edges[kDeleteStride * next_delete++];
      batches[w].push_back(EdgeEdit::Delete(u, v));
    }
  }

  ShardedServiceOptions grouped_opts = ServiceOptions();
  grouped_opts.group_commit = true;
  ShardedHCoreService grouped(Graph(g), grouped_opts);

  // Readers pin views and run component and densest queries while the
  // groups commit; a pinned view must stay internally consistent.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&](VertexId start) {
    for (VertexId v = start; !stop.load(std::memory_order_relaxed);
         v = (v + 7) % n) {
      const auto view = grouped.view();
      const uint64_t epoch = view->service_epoch();
      for (VertexId u : view->CoreComponentOf(v, 2, 2)) {
        if (view->CoreOf(u, 2) < 2) failed.store(true);
      }
      if (view->TopDensestLevels(2, 3).empty() ||
          view->service_epoch() != epoch) {
        failed.store(true);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r * 11);
  while (reads.load(std::memory_order_relaxed) < kReaders) {
  }

  std::vector<size_t> applied(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] { applied[w] = grouped.ApplyBatch(batches[w]); });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(applied[w], static_cast<size_t>(kInserts + kDeletes))
        << "writer " << w;
  }
  // Groups coalesce: the epoch advanced once per commit group, never more
  // than once per writer.
  const uint64_t epoch = grouped.view()->service_epoch();
  EXPECT_GE(epoch, 1u);
  EXPECT_LE(epoch, static_cast<uint64_t>(kWriters));

  // Control: the same edits in one sequential batch, group commit off.
  std::vector<EdgeEdit> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  ShardedHCoreService control(Graph(g), ServiceOptions());
  ASSERT_EQ(control.ApplyBatch(all), all.size());
  HCoreIndex oracle(Graph(g), IndexOptions());
  ASSERT_EQ(oracle.ApplyBatch(all), all.size());

  EXPECT_EQ(grouped.view()->graph().FlattenedNeighbors(),
            control.view()->graph().FlattenedNeighbors());
  AssertEquivalent(*grouped.view(), *oracle.snapshot(), 77, "group-commit");
}

TEST(Serve, ReadersRacingAWriterKeepTheirEpoch) {
  // Readers pin views while a writer publishes epochs: a pinned view keeps
  // answering from its own epoch, so its graph, cores and components stay
  // consistent with each other however many batches land meanwhile.
  Rng rng(29);
  Graph g = gen::PlantedPartition(4, 25, 0.4, 0.05, &rng);
  ShardedServiceOptions opts;
  opts.index.max_h = 2;
  ShardedHCoreService service(std::move(g), opts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto view = service.view();
      const uint64_t epoch = view->service_epoch();
      const uint64_t edges = view->graph().num_edges();
      for (VertexId u : view->CoreComponentOf(0, 1, 2)) {
        if (view->CoreOf(u, 2) < 1) failed.store(true);
      }
      (void)view->TopDensestLevels(2, 3);
      if (view->service_epoch() != epoch ||
          view->graph().num_edges() != edges) {
        failed.store(true);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  Rng edit_rng(31);
  size_t applied = 0;
  for (int step = 0; step < 30; ++step) {
    applied +=
        service.ApplyBatch(MixedBatch(service.view()->graph(), &edit_rng, 2));
  }
  while (reads.load(std::memory_order_relaxed) < 50) {
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(applied, 0u);
  const auto view = service.view();
  for (int h = 1; h <= 2; ++h) {
    KhCoreOptions fresh;
    fresh.h = h;
    EXPECT_EQ(view->snapshot().Cores(h),
              KhCoreDecomposition(view->graph(), fresh).core)
        << "h=" << h;
  }
}

}  // namespace
}  // namespace hcore
