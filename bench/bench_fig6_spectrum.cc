// Figure 6 (Appendix C): the "spectrum" of a vertex — scatter of the
// normalized core index at h = 1 against h = 2..5 on caAs. Since the
// harness is text-only, the scatter is summarized as (a) the Pearson
// correlation between the two normalized indexes, and (b) a coarse 4x4
// joint histogram over normalized-index quartiles.
//
// Paper shape to reproduce: substantial dispersion — h > 1 core indexes
// carry information genuinely different from h = 1 (correlation well below
// 1, mass away from the diagonal; vertices with low h=1 index can climb to
// very high h=3..5 indexes).

#include <cstdio>

#include "bench_common.h"
#include "core/spectrum.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 6: core-index spectrum, h=1 vs h=2..5 (caAs)");
  Dataset d = bench::Load(args, "caAs", /*quick=*/0.15);
  const VertexId n = d.graph.num_vertices();
  std::printf("n=%u m=%llu\n", n,
              static_cast<unsigned long long>(d.graph.num_edges()));

  SpectrumOptions opts;
  opts.max_h = 5;
  const SpectrumResult spectrum = KhCoreSpectrum(d.graph, opts);

  // Normalized index core_h(v) / Ĉ_h binned into quartiles.
  auto quart = [&](int h, VertexId v) {
    const uint32_t degeneracy = spectrum.degeneracy[h - 1];
    const double x =
        degeneracy ? static_cast<double>(spectrum.core[h - 1][v]) / degeneracy
                   : 0;
    int q = static_cast<int>(x * 4.0 - 1e-12);
    return q < 0 ? 0 : (q > 3 ? 3 : q);
  };
  for (int h = 2; h <= 5; ++h) {
    uint32_t joint[4][4] = {};
    for (VertexId v = 0; v < n; ++v) ++joint[quart(1, v)][quart(h, v)];

    // Pearson correlation is scale-invariant: the raw core indexes give the
    // same value as the normalized ones.
    std::printf("\nh=1 vs h=%d: Pearson corr = %.3f\n", h,
                spectrum.LevelCorrelation(1, h));
    std::printf("joint quartile histogram (rows: h=1 low->high, cols: h=%d):\n",
                h);
    for (int r = 0; r < 4; ++r) {
      std::printf("  ");
      for (int c = 0; c < 4; ++c) {
        std::printf(" %6.3f", static_cast<double>(joint[r][c]) / n);
      }
      std::printf("\n");
    }
  }
  return 0;
}
