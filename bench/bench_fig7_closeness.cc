// Figure 7 (Appendix C): correlation between closeness centrality and the
// normalized core index as h grows (caAs). The figure sorts vertices by
// descending closeness; this harness prints, for each closeness decile, the
// mean normalized core index, plus an overall rank correlation.
//
// Paper shape to reproduce: for h = 1 the relation is noisy (non-central
// vertices can sit in high cores); as h grows the core index aligns with
// centrality (top-closeness deciles approach 1.0, monotone decay after).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "centrality/closeness.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Figure 7: closeness-centrality deciles vs normalized core index");
  Dataset d = bench::Load(args, "caAs", /*quick=*/0.15);
  const VertexId n = d.graph.num_vertices();
  std::printf("n=%u m=%llu\n", n,
              static_cast<unsigned long long>(d.graph.num_edges()));

  std::vector<double> closeness = ClosenessCentrality(d.graph);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return closeness[a] > closeness[b];
  });

  std::printf("%4s", "h");
  for (int dec = 1; dec <= 10; ++dec) std::printf("   d%-3d", dec);
  std::printf("%8s\n", "corr");
  for (int h = 1; h <= 4; ++h) {
    KhCoreOptions opts;
    opts.h = h;
    KhCoreResult r = KhCoreDecomposition(d.graph, opts);

    std::printf("%4d", h);
    for (int dec = 0; dec < 10; ++dec) {
      size_t lo = n * dec / 10, hi = n * (dec + 1) / 10;
      double mean = 0.0;
      for (size_t i = lo; i < hi; ++i) {
        mean += r.degeneracy
                    ? static_cast<double>(r.core[order[i]]) / r.degeneracy
                    : 0.0;
      }
      std::printf(" %6.3f", hi > lo ? mean / (hi - lo) : 0.0);
    }

    // Pearson correlation between closeness and normalized core index.
    double mx = 0, my = 0;
    for (VertexId v = 0; v < n; ++v) {
      mx += closeness[v];
      my += r.core[v];
    }
    mx /= n;
    my /= n;
    double sxy = 0, sxx = 0, syy = 0;
    for (VertexId v = 0; v < n; ++v) {
      sxy += (closeness[v] - mx) * (r.core[v] - my);
      sxx += (closeness[v] - mx) * (closeness[v] - mx);
      syy += (r.core[v] - my) * (r.core[v] - my);
    }
    std::printf("  %6.3f\n",
                (sxx > 0 && syy > 0) ? sxy / std::sqrt(sxx * syy) : 0.0);
  }
  return 0;
}
