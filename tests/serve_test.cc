// Serving suite: HCoreIndex's group commit (concurrent writers coalesced
// into one epoch beside querying readers, each writer credited exactly),
// its serving counters and stats reset, and the benchmark-compat shim in
// serve/sharded_service.h. A TSan leg target.

#include "serve/sharded_service.h"

#include <atomic>
#include <memory>
#include <set>
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

using ::hcore::testing::IndexOptions;
using ::hcore::testing::MixedBatch;

constexpr int kMaxH = 3;

TEST(Serve, CompatShimServesTheIndexSnapshot) {
  // The names the benchmark adapter uses: the view is the index snapshot,
  // its one "shard" is itself, and group_commit is accepted and ignored.
  Rng rng(5);
  ShardedServiceOptions opts;
  opts.index = IndexOptions(kMaxH);
  opts.group_commit = true;
  ShardedHCoreService service(gen::BarabasiAlbert(60, 3, &rng), opts);
  const std::shared_ptr<const ShardedServiceView> view = service.view();
  EXPECT_EQ(view, service.snapshot());
  EXPECT_EQ(view->num_shards(), 1);
  EXPECT_EQ(&view->shard_snapshot(0), view.get());
  EXPECT_EQ(view->service_epoch(), view->epoch());

  VertexId v = 59;
  while (view->graph().HasEdge(0, v)) --v;
  const EdgeEdit edit = EdgeEdit::Insert(0, v);
  ASSERT_EQ(service.ApplyBatch({&edit, 1}), 1u);
  const auto after = service.view();
  EXPECT_EQ(after->service_epoch(), 1u);

  // Community is the cocktail-party search over the snapshot's own cores.
  for (int h = 1; h <= kMaxH; ++h) {
    const std::vector<VertexId> query = {0, 17};
    const CommunityResult got = after->Community(query, h);
    const CommunityResult want = DistanceCocktailPartyFromCores(
        after->graph(), query, h, after->Cores(h));
    EXPECT_EQ(got.feasible, want.feasible) << "h=" << h;
    EXPECT_EQ(got.vertices, want.vertices) << "h=" << h;
    EXPECT_EQ(got.min_h_degree, want.min_h_degree) << "h=" << h;
    EXPECT_EQ(got.core_level, want.core_level) << "h=" << h;
  }
}

TEST(Serve, StatsCountEffectiveBatchesAndResetZeroes) {
  Rng rng(17);
  Graph g = gen::BarabasiAlbert(90, 3, &rng);
  HCoreIndex index(Graph(g), IndexOptions(kMaxH));

  Rng edit_rng(3);
  size_t effective_batches = 0;
  size_t effective_edits = 0;
  for (int round = 0; round < 4; ++round) {
    auto batch = MixedBatch(index.snapshot()->graph(), &edit_rng, 3);
    const size_t applied = index.ApplyBatch(batch);
    if (applied > 0) {
      ++effective_batches;
      effective_edits += applied;
    }
  }
  ASSERT_GT(effective_batches, 0u);

  const HCoreIndexStats stats = index.stats();
  // One splice per effective batch, and every level of it served by
  // exactly one of the two repair paths.
  EXPECT_EQ(stats.batches_applied, effective_batches);
  EXPECT_EQ(stats.edits_applied, effective_edits);
  EXPECT_EQ(stats.localized_updates + stats.fallback_repeels,
            effective_batches * kMaxH);

  const uint64_t epoch_before = index.snapshot()->epoch();
  EXPECT_EQ(epoch_before, effective_batches);
  index.ResetStats();
  const HCoreIndexStats zeroed = index.stats();
  EXPECT_EQ(zeroed.batches_applied, 0u);
  EXPECT_EQ(zeroed.edits_applied, 0u);
  EXPECT_EQ(zeroed.decomposition.visited_vertices, 0u);
  // Reset is a counter operation only: the published snapshot is untouched.
  EXPECT_EQ(index.snapshot()->epoch(), epoch_before);
}

TEST(Serve, GroupCommitCoalescesConcurrentWritersExactly) {
  // Concurrent writers while readers query: a leader drains the queue and
  // applies one concatenated batch per group. Each writer inserts its own
  // absent edges and deletes its own present edges, so the final state does
  // not depend on arrival order, every writer's attributed count must come
  // back exactly, and the final state must equal a control index that
  // applied the same edits as one batch.
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

  HCoreIndex grouped(Graph(g), IndexOptions(kMaxH));

  // Readers pin snapshots and run component and densest queries while the
  // groups commit; a pinned snapshot must stay internally consistent.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&](VertexId start) {
    for (VertexId v = start; !stop.load(std::memory_order_relaxed);
         v = (v + 7) % n) {
      const auto snap = grouped.snapshot();
      const uint64_t epoch = snap->epoch();
      for (VertexId u : snap->CoreComponentOf(v, 2, 2)) {
        if (snap->CoreOf(u, 2) < 2) failed.store(true);
      }
      if (snap->TopDensestLevels(2, 3).empty() || snap->epoch() != epoch) {
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
    writers.emplace_back(
        [&, w] { applied[w] = grouped.ApplyBatch(batches[w]); });
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
  const uint64_t epoch = grouped.snapshot()->epoch();
  EXPECT_GE(epoch, 1u);
  EXPECT_LE(epoch, static_cast<uint64_t>(kWriters));
  EXPECT_EQ(grouped.stats().batches_applied, epoch);

  // Control: the same edits in one batch from a single writer.
  std::vector<EdgeEdit> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  HCoreIndex control(Graph(g), IndexOptions(kMaxH));
  ASSERT_EQ(control.ApplyBatch(all), all.size());
  EXPECT_EQ(control.snapshot()->epoch(), 1u);

  const auto got = grouped.snapshot();
  const auto want = control.snapshot();
  EXPECT_EQ(got->graph().num_vertices(), want->graph().num_vertices());
  EXPECT_EQ(got->graph().Edges(), want->graph().Edges());
  for (int h = 1; h <= kMaxH; ++h) {
    EXPECT_EQ(got->Cores(h), want->Cores(h)) << "h=" << h;
  }
}

}  // namespace
}  // namespace hcore
