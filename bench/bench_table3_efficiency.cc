// Table 3: runtime (seconds) and number of computed point-to-point
// distances (BFS-visited vertices) for h-BZ, h-LB and h-LB+UB at
// h = 2, 3, 4 across the nine medium/large datasets.
//
// Paper shape to reproduce:
//   * h-LB and h-LB+UB beat h-BZ by >= one order of magnitude in visits;
//   * h-LB wins on road networks (sparse, low h-degree everywhere);
//   * h-LB+UB wins for h >= 3 on social/collaboration graphs.
// The third point does not hold for this code. h-LB lowers a neighbor's
// key by a ball size instead of re-running its BFS, and so at h = 3 it
// ran 1.4-2.5x faster than h-LB+UB on every dataset stand-in that takes
// over 1 ms (ten of twelve at scale 0.1, 1 thread, 4-thread x86 box),
// social and collaboration sets included, with fewer visits on all twelve.
// At h = 4 it was faster on all but lj, where the two tie (6.6 s each) at
// scale 0.1; at scale 0.3 h-LB won h = 4 on sytb, hyves and lj (2.22 vs
// 5.98 s, 6.39 vs 9.79 s, 42.1 vs 80.2 s) and h = 5 too (13.9 vs 20.5 s,
// 15.7 vs 19.8 s, 19.1 vs 46.9 s).
// kAuto follows this and runs h-LB at every h.
// Absolute values differ (synthetic stand-ins, reduced scale).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/kh_core.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 3: runtime (s) and BFS-visited vertices per algorithm");

  struct Row {
    const char* name;
    double quick_scale;
    double full_scale;
  };
  // h-BZ is the bottleneck: dense sets run at reduced scale by default.
  const std::vector<Row> rows = {
      {"FBco", 0.12, 0.5}, {"caHe", 0.10, 0.4}, {"caAs", 0.08, 0.4},
      {"doub", 0.05, 0.3}, {"amzn", 0.05, 0.3}, {"rnPA", 0.08, 0.5},
      {"rnTX", 0.08, 0.5}, {"sytb", 0.03, 0.2}, {"hyves", 0.03, 0.2},
  };
  const int hs[] = {2, 3, 4};

  for (const Row& row : rows) {
    Dataset d = bench::Load(args, row.name, row.quick_scale, row.full_scale);
    std::printf("\n[%s] n=%u m=%llu\n", row.name, d.graph.num_vertices(),
                static_cast<unsigned long long>(d.graph.num_edges()));
    std::printf("%-9s", "");
    for (int h : hs) std::printf("   t(h=%d)    visits(h=%d)", h, h);
    std::printf("\n");
    for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                                KhCoreAlgorithm::kLbUb}) {
      std::printf("%-9s", ToString(alg).c_str());
      for (int h : hs) {
        KhCoreOptions opts;
        opts.h = h;
        opts.algorithm = alg;
        KhCoreResult r = KhCoreDecomposition(d.graph, opts);
        std::printf("  %8.3f  %13llu", r.stats.seconds,
                    static_cast<unsigned long long>(r.stats.visited_vertices));
      }
      std::printf("\n");
    }
  }
  std::printf("\n(visits = total vertices popped across all h-bounded BFS;\n"
              "the paper reports the same counter scaled by 1e8.)\n");
  return 0;
}
