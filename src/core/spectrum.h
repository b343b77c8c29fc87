// Core-index "spectrum" of a vertex (paper §7, future work).
//
// The paper's conclusions propose computing the (k,h)-core decompositions
// for several values of h at once, treating the vector
//   spectrum(v) = (core_1(v), core_2(v), ..., core_H(v))
// as a structural fingerprint of v. This module runs one independent
// decomposition per level. Core indexes are monotone in h (core_h(v) <=
// core_{h+1}(v): the h-neighborhood only grows with h, in every induced
// subgraph), but seeding level h with core_{h-1} as a lower bound saves
// nothing: at h = 2 LB1 = deg >= core_1 already, and at h = 3 and 4 it
// saved at most 0.4% of the BFS runs on the inputs measured.

#ifndef HCORE_CORE_SPECTRUM_H_
#define HCORE_CORE_SPECTRUM_H_

#include <cstdint>
#include <vector>

#include "core/kh_core.h"
#include "graph/graph.h"

namespace hcore {

/// Result of a multi-h decomposition sweep.
struct SpectrumResult {
  /// core[h-1][v]: the (k,h)-core index of v, for h in [1, max_h].
  std::vector<std::vector<uint32_t>> core;
  /// degeneracy[h-1]: Ĉ_h(G).
  std::vector<uint32_t> degeneracy;
  /// Aggregate decomposition cost over all levels.
  KhCoreStats stats;

  int max_h() const { return static_cast<int>(core.size()); }

  /// The spectrum of one vertex: (core_1(v), ..., core_H(v)).
  std::vector<uint32_t> VertexSpectrum(VertexId v) const;

  /// Pearson correlation between levels h_a and h_b (1-based), as used by
  /// the paper's Figure 6 discussion. Returns 0 for degenerate inputs.
  double LevelCorrelation(int h_a, int h_b) const;
};

/// Options for the sweep. `base` configures each per-level decomposition
/// (its `h` field is ignored).
struct SpectrumOptions {
  int max_h = 4;
  KhCoreOptions base;
};

/// Computes the (k,h)-core decomposition for every h in [1, max_h].
///
/// Each level h runs KhCoreDecomposition with `base`'s options, which must
/// carry no extra lower bound.
SpectrumResult KhCoreSpectrum(const Graph& g, const SpectrumOptions& options = {});

}  // namespace hcore

#endif  // HCORE_CORE_SPECTRUM_H_
