// Table 2: maximum core index / number of distinct cores for h = 1..5 on
// the six small/medium datasets (coli, cele, jazz, FBco, caHe, caAs).
//
// Paper shape to reproduce: moving h from 1 to 2-3 multiplies both the
// maximum core index and the number of distinct cores; for h >= 4 the max
// index keeps growing while the distinct-core count collapses on
// small-diameter graphs.

#include <cstdio>

#include "bench_common.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 2: max core index / #distinct cores");
  std::printf("%-7s", "");
  for (int h = 1; h <= 5; ++h) std::printf("       h=%d", h);
  std::printf("\n");

  const char* names[] = {"coli", "cele", "jazz", "FBco", "caHe", "caAs"};
  for (const char* name : names) {
    Dataset d = bench::Load(args, name, /*quick=*/0.18);
    std::printf("%-7s", name);
    for (int h = 1; h <= 5; ++h) {
      KhCoreOptions opts;
      opts.h = h;
      KhCoreResult r = KhCoreDecomposition(d.graph, opts);
      // The paper counts distinct non-empty cores; core value 0 vertices
      // exist only when isolated, matching |{core(v)}|.
      std::printf(" %5u/%-4u", r.degeneracy, r.NumDistinctCores());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
