// Figure 4: distribution of core indexes. For h = 1..5, the fraction of
// vertices whose normalized core index core(v)/Ĉ_h(G) falls in each of ten
// buckets (0.0,0.1], ..., (0.9,1.0].
//
// Paper shape to reproduce: for h = 1 the mass sits in the low/middle
// buckets; as h grows a large spike appears in the top bucket (vertices
// collapsing into the innermost cores).

#include <cstdio>

#include "bench_common.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 4: fraction of vertices per core-index decile");
  for (const char* name : {"caAs", "FBco"}) {
    Dataset d = bench::Load(args, name, /*quick=*/0.18);
    std::printf("\n[%s] n=%u m=%llu\n", name, d.graph.num_vertices(),
                static_cast<unsigned long long>(d.graph.num_edges()));
    std::printf("%4s", "h");
    for (int i = 1; i <= 10; ++i) std::printf("  (%0.1f]", i / 10.0);
    std::printf("\n");
    for (int h = 1; h <= 5; ++h) {
      KhCoreOptions opts;
      opts.h = h;
      KhCoreResult r = KhCoreDecomposition(d.graph, opts);
      std::vector<uint32_t> bucket(10, 0);
      for (uint32_t c : r.core) {
        double x = r.degeneracy ? static_cast<double>(c) / r.degeneracy : 0.0;
        int b = static_cast<int>(x * 10.0 - 1e-12);
        if (b < 0) b = 0;
        if (b > 9) b = 9;
        ++bucket[b];
      }
      std::printf("%4d", h);
      for (int b = 0; b < 10; ++b) {
        std::printf("  %5.3f",
                    static_cast<double>(bucket[b]) / d.graph.num_vertices());
      }
      std::printf("\n");
    }
  }
  return 0;
}
