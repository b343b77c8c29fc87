// Figure 3: cumulative core-size profile. For h = 1..5, how many vertices
// belong to the (k,h)-core C_k, with both axes normalized: x = k/Ĉ_h(G),
// y = |C_k|/|V|. Printed as one series per h over ten x-positions.
//
// Paper shape to reproduce: larger h pushes mass toward the high cores (the
// curves for h >= 3 stay near y = 1 much longer than h = 1).

#include <cstdio>

#include "bench_common.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 3: |C_k|/|V| vs k/degeneracy, h = 1..5");
  for (const char* name : {"caAs", "FBco"}) {
    Dataset d = bench::Load(args, name, /*quick=*/0.18);
    std::printf("\n[%s] n=%u m=%llu\n", name, d.graph.num_vertices(),
                static_cast<unsigned long long>(d.graph.num_edges()));
    std::printf("%4s", "h");
    for (int i = 1; i <= 10; ++i) std::printf("  x=%-4.1f", i / 10.0);
    std::printf("\n");
    for (int h = 1; h <= 5; ++h) {
      KhCoreOptions opts;
      opts.h = h;
      KhCoreResult r = KhCoreDecomposition(d.graph, opts);
      std::vector<uint32_t> sizes = r.CoreSizes();
      std::printf("%4d", h);
      for (int i = 1; i <= 10; ++i) {
        uint32_t k = static_cast<uint32_t>(r.degeneracy * i / 10.0);
        double ratio = static_cast<double>(sizes[k]) / d.graph.num_vertices();
        std::printf("  %6.3f", ratio);
      }
      std::printf("   (degeneracy %u)\n", r.degeneracy);
    }
  }
  return 0;
}
