// Ablation: dynamic maintenance strategies across a stream of single-edge
// updates, every mode maintaining the same levels h' = 1..h —
//
//   localized : HCoreIndex (max_h = h) with localized maintenance on — a
//               per-level candidate-region re-peel with pinned boundary
//               (core/incremental.h), warm fallback past the region cap;
//   warm      : the same index with localized maintenance off — every
//               level re-decomposed whole-graph, warm-started by the old
//               cores after an insert and from its own bounds after a
//               delete;
//   scratch   : KhCoreSpectrum to depth h from scratch after every edit.
//
// All three are exact, so the comparison is pure cost: BFS visits and wall
// time per applied edit (all levels). The acceptance bar for the localized
// path is a >= 5x per-edit speedup over the warm start for single-edge
// edits on a 100k-vertex graph (the clu100k section below — a
// heterogeneous clustered topology, the social-graph shape localized
// maintenance targets). The ba100k section is the adversarial counterpart:
// hub-dominated h-balls flood the insert-side candidate region, so inserts
// exercise the capped fallback while the delete cascade stays localized.
//
// --json=PATH additionally writes the rows as a JSON artifact
// (BENCH_incremental.json in CI).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/spectrum.h"
#include "graph/generators.h"
#include "index/hcore_index.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace hcore;

struct StreamResult {
  std::string dataset;
  int h = 0;
  std::string mode;
  int edits = 0;
  double seconds = 0.0;  // edit calls only (graph copies/setup excluded)
  uint64_t visits = 0;
  uint64_t localized = 0;  // levels repaired in place
  uint64_t fallbacks = 0;  // levels re-decomposed whole-graph

  double MsPerEdit() const { return edits > 0 ? seconds * 1e3 / edits : 0.0; }
  double VisitsPerEdit() const {
    return edits > 0 ? static_cast<double>(visits) / edits : 0.0;
  }
};

/// Alternating random inserts / deletes of existing edges; every mode
/// replays the same seed, so the edit streams are identical.
StreamResult RunDynamic(const std::string& dataset, const Graph& g, int h,
                        const std::string& mode,
                        const LocalizedUpdateOptions& localized, int updates,
                        uint64_t seed) {
  HCoreIndexOptions opts;
  opts.max_h = h;
  opts.localized = localized;
  HCoreIndex index(g, opts);
  index.ResetStats();  // count the stream only, not the initial build
  Rng rng(seed);
  StreamResult out;
  out.dataset = dataset;
  out.h = h;
  out.mode = mode;
  while (out.edits < updates) {
    const auto snap = index.snapshot();
    const VertexId n = snap->graph().num_vertices();
    bool ok;
    if (rng.NextBool(0.5)) {
      const VertexId u = rng.NextIndex(n);
      const VertexId v = rng.NextIndex(n);
      WallTimer timer;
      ok = index.InsertEdge(u, v);
      out.seconds += timer.ElapsedSeconds();
    } else {
      auto edges = snap->graph().Edges();
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      WallTimer timer;
      ok = index.DeleteEdge(u, v);
      out.seconds += timer.ElapsedSeconds();
    }
    if (ok) ++out.edits;
  }
  const HCoreIndexStats stats = index.stats();
  out.visits = stats.decomposition.visited_vertices;
  out.localized = stats.localized_updates;
  out.fallbacks = stats.fallback_repeels;
  return out;
}

/// Fresh spectrum sweep to depth h after every edit (no bounds from the
/// previous epoch).
StreamResult RunScratch(const std::string& dataset, Graph g, int h,
                        int updates, uint64_t seed) {
  SpectrumOptions opts;
  opts.max_h = h;
  Rng rng(seed);
  StreamResult out;
  out.dataset = dataset;
  out.h = h;
  out.mode = "scratch";
  while (out.edits < updates) {
    const VertexId n = g.num_vertices();
    EdgeEdit edit = EdgeEdit::Insert(0, 0);
    if (rng.NextBool(0.5)) {
      edit = EdgeEdit::Insert(rng.NextIndex(n), rng.NextIndex(n));
      if (edit.u == edit.v || g.HasEdge(edit.u, edit.v)) continue;
    } else {
      auto edges = g.Edges();
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      edit = EdgeEdit::Delete(u, v);
    }
    WallTimer timer;
    g = g.WithEdits({&edit, 1});
    SpectrumResult r = KhCoreSpectrum(g, opts);
    out.seconds += timer.ElapsedSeconds();
    ++out.edits;
    out.visits += r.stats.visited_vertices;
  }
  return out;
}

/// Heterogeneous clustered graph: communities of varying size (8..72) and
/// density, plus sparse random bridges (~n/32 edges). Community cores vary,
/// so candidate regions stop at community boundaries.
Graph Clustered(VertexId n, Rng* rng) {
  GraphBuilder b(n);
  VertexId v = 0;
  while (v < n) {
    VertexId size = 8 + rng->NextIndex(65);
    if (v + size > n) size = n - v;
    const double p = std::min(1.0, (4.0 + 8.0 * rng->NextDouble()) / size);
    for (VertexId i = 0; i < size; ++i) {
      for (VertexId j = i + 1; j < size; ++j) {
        if (rng->NextBool(p)) b.AddEdge(v + i, v + j);
      }
    }
    v += size;
  }
  for (VertexId e = 0; e < n / 32; ++e) {
    b.AddEdge(rng->NextIndex(n), rng->NextIndex(n));
  }
  return b.Build();
}

void PrintRow(const StreamResult& r) {
  std::printf("%-7s h=%-2d %-9s %5d %12.3f %14.0f %6llu/%llu\n",
              r.dataset.c_str(), r.h, r.mode.c_str(), r.edits, r.MsPerEdit(),
              r.VisitsPerEdit(), static_cast<unsigned long long>(r.localized),
              static_cast<unsigned long long>(r.fallbacks));
}

void WriteJson(const char* path, const std::vector<StreamResult>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_incremental\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const StreamResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"dataset\": \"%s\", \"h\": %d, \"mode\": \"%s\", "
        "\"edits\": %d, \"ms_per_edit\": %.4f, \"visits_per_edit\": %.1f, "
        "\"localized\": %llu, \"fallbacks\": %llu}%s\n",
        r.dataset.c_str(), r.h, r.mode.c_str(), r.edits, r.MsPerEdit(),
        r.VisitsPerEdit(), static_cast<unsigned long long>(r.localized),
        static_cast<unsigned long long>(r.fallbacks),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv, /*takes_json=*/true);
  bench::PrintHeader(
      "Ablation: localized vs warm vs scratch dynamic maintenance");
  std::printf("%-7s %-4s %-9s %5s %12s %14s %9s\n", "data", "h", "mode",
              "edits", "ms/edit", "visits/edit", "loc/fb");
  std::vector<StreamResult> rows;

  const LocalizedUpdateOptions on;  // defaults
  LocalizedUpdateOptions off;
  off.enable = false;

  for (const char* name : {"caAs", "doub"}) {
    Dataset d = bench::Load(args, name, /*quick=*/0.06, /*full=*/0.25);
    for (int h : {2, 3}) {
      const int updates = args.full ? 24 : 8;
      const uint64_t seed = 99;
      StreamResult localized =
          RunDynamic(name, d.graph, h, "localized", on, updates, seed);
      StreamResult warm =
          RunDynamic(name, d.graph, h, "warm", off, updates, seed);
      StreamResult scratch =
          RunScratch(name, d.graph, h, args.full ? 12 : 6, seed);
      for (const StreamResult* r : {&localized, &warm, &scratch}) {
        PrintRow(*r);
        rows.push_back(*r);
      }
    }
  }

  // Acceptance section: single-edge edits on a 100k-vertex clustered graph.
  // The localized path must beat the whole-graph warm start by >= 5x per
  // edit (5.2-6.1x at h = 2 over three Release runs on a 4-core box; most
  // edits re-peel one community).
  {
    Rng gen_rng(9);
    Graph g = Clustered(100000, &gen_rng);
    for (int h : args.full ? std::vector<int>{2, 3} : std::vector<int>{2}) {
      const uint64_t seed = 1234;
      StreamResult localized = RunDynamic("clu100k", g, h, "localized", on,
                                          args.full ? 40 : 16, seed);
      StreamResult warm =
          RunDynamic("clu100k", g, h, "warm", off, args.full ? 8 : 4, seed);
      StreamResult scratch =
          RunScratch("clu100k", g, h, args.full ? 4 : 2, seed);
      for (const StreamResult* r : {&localized, &warm, &scratch}) {
        PrintRow(*r);
        rows.push_back(*r);
      }
      const double speedup =
          localized.MsPerEdit() > 0 ? warm.MsPerEdit() / localized.MsPerEdit()
                                    : 0.0;
      std::printf(
          "clu100k h=%d: localized %.1fx faster per edit than warm "
          "(target >= 5x), %llu localized / %llu fallback\n",
          h, speedup, static_cast<unsigned long long>(localized.localized),
          static_cast<unsigned long long>(localized.fallbacks));
    }
  }

  // Adversarial section: hub-dominated 100k BA graph. Insert-side regions
  // flood through hub h-balls, so inserts exercise the capped fallback
  // (cost bounded at warm-start levels); the delete cascade stays local.
  {
    Rng gen_rng(7);
    Graph g = gen::BarabasiAlbert(100000, 3, &gen_rng);
    StreamResult localized =
        RunDynamic("ba100k", g, 2, "localized", on, args.full ? 16 : 8, 1234);
    StreamResult warm =
        RunDynamic("ba100k", g, 2, "warm", off, args.full ? 8 : 4, 1234);
    for (const StreamResult* r : {&localized, &warm}) {
      PrintRow(*r);
      rows.push_back(*r);
    }
  }

  if (!args.json_path.empty()) WriteJson(args.json_path.c_str(), rows);
  return 0;
}
