// Snapshot-serving HCoreIndex: build once, answer point queries from
// immutable epochs while batched edge updates advance the index.
//
// Demonstrates the full serving loop: spectrum / core / component / densest
// queries from a snapshot, a reader thread that keeps querying its OLD
// epoch while a batch is applied, and the one-CSR-rebuild-per-batch cost
// model (compare the counters before and after).

#include <cstdio>
#include <thread>
#include <vector>

#include "index/hcore_index.h"
#include "graph/generators.h"
#include "util/rng.h"

int main() {
  hcore::Rng rng(19);
  hcore::Graph g = hcore::gen::PlantedPartition(4, 40, 0.45, 0.01, &rng);
  std::printf("graph: n = %u, m = %llu (4 planted communities of 40)\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()));

  hcore::HCoreIndexOptions opts;
  opts.max_h = 3;
  hcore::HCoreIndex index(g, opts);
  auto snap = index.snapshot();

  std::printf("\npoint queries from epoch %llu:\n",
              static_cast<unsigned long long>(snap->epoch()));
  for (hcore::VertexId v : {0u, 45u, 90u, 135u}) {
    auto s = snap->Spectrum(v);
    std::printf("  spectrum(v%-3u) = (%u, %u, %u)   |component(k=%u,h=2)| = %zu\n",
                v, s[0], s[1], s[2], s[1],
                snap->CoreComponentOf(v, s[1], 2).size());
  }
  auto densest = snap->TopDensestLevels(2, 3);
  std::printf("  densest h=2 levels:");
  for (const auto& row : densest) {
    std::printf("  k=%u (%.2f)", row.k, row.density);
  }
  std::printf("\n");

  // A reader pinned to the old epoch keeps answering while a batch lands.
  std::thread reader([snap] {
    uint64_t checksum = 0;
    for (hcore::VertexId v = 0; v < snap->graph().num_vertices(); ++v) {
      checksum += snap->CoreOf(v, 2);
    }
    std::printf("reader on epoch %llu finished: sum(core_2) = %llu\n",
                static_cast<unsigned long long>(snap->epoch()),
                static_cast<unsigned long long>(checksum));
  });

  // Batch: bridge the communities with a handful of edges, drop a few.
  std::vector<hcore::EdgeEdit> batch;
  for (hcore::VertexId i = 0; i < 6; ++i) {
    batch.push_back(hcore::EdgeEdit::Insert(i, 40 + i));
    batch.push_back(hcore::EdgeEdit::Insert(80 + i, 120 + i));
  }
  batch.push_back(hcore::EdgeEdit::Delete(0, 1));
  const size_t applied = index.ApplyBatch(batch);
  reader.join();

  auto fresh = index.snapshot();
  const hcore::HCoreIndexStats stats = index.stats();
  std::printf("\napplied %zu edits in ONE batch -> epoch %llu\n", applied,
              static_cast<unsigned long long>(fresh->epoch()));
  std::printf("  graph splices = %llu (one per batch, not one per edge)\n",
              static_cast<unsigned long long>(stats.batches_applied));
  std::printf("  warm level re-decompositions = %llu, unchanged levels = %llu\n",
              static_cast<unsigned long long>(stats.level_decompositions),
              static_cast<unsigned long long>(stats.levels_unchanged));
  std::printf("  old epoch still serving: core_2(0) was %u, now %u\n",
              snap->CoreOf(0, 2), fresh->CoreOf(0, 2));
  return 0;
}
