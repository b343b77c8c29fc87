#include "core/spectrum.h"

#include <algorithm>
#include <cmath>

namespace hcore {

std::vector<uint32_t> SpectrumResult::VertexSpectrum(VertexId v) const {
  std::vector<uint32_t> out;
  out.reserve(core.size());
  for (const auto& level : core) {
    HCORE_CHECK(v < level.size());
    out.push_back(level[v]);
  }
  return out;
}

double SpectrumResult::LevelCorrelation(int h_a, int h_b) const {
  HCORE_CHECK(h_a >= 1 && h_a <= max_h());
  HCORE_CHECK(h_b >= 1 && h_b <= max_h());
  const auto& a = core[h_a - 1];
  const auto& b = core[h_b - 1];
  const size_t n = a.size();
  if (n == 0) return 0.0;
  double ma = 0, mb = 0;
  for (size_t v = 0; v < n; ++v) {
    ma += a[v];
    mb += b[v];
  }
  ma /= n;
  mb /= n;
  double sab = 0, saa = 0, sbb = 0;
  for (size_t v = 0; v < n; ++v) {
    sab += (a[v] - ma) * (b[v] - mb);
    saa += (a[v] - ma) * (a[v] - ma);
    sbb += (b[v] - mb) * (b[v] - mb);
  }
  if (saa <= 0 || sbb <= 0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

SpectrumResult KhCoreSpectrum(const Graph& g, const SpectrumOptions& options) {
  HCORE_CHECK(options.max_h >= 1);
  // A caller's bound holds only at the h it was computed for.
  HCORE_CHECK(options.base.extra_lower_bound == nullptr);
  SpectrumResult out;
  out.core.reserve(options.max_h);
  out.degeneracy.reserve(options.max_h);
  for (int h = 1; h <= options.max_h; ++h) {
    KhCoreOptions opts = options.base;
    opts.h = h;
    KhCoreResult level = KhCoreDecomposition(g, opts);
    out.stats.Add(level.stats);
    out.degeneracy.push_back(level.degeneracy);
    out.core.push_back(std::move(level.core));
  }
  return out;
}

}  // namespace hcore
