// Deterministic pseudo-random number generation.
//
// All stochastic components of hcore (graph generators, sampling, landmark
// selection) take an explicit Rng so experiments are reproducible bit-for-bit
// across runs and platforms. The engine is xoshiro256**, seeded via
// SplitMix64 (Blackman & Vigna).

#ifndef HCORE_UTIL_RNG_H_
#define HCORE_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace hcore {

/// Deterministic 64-bit PRNG (xoshiro256**). Not cryptographic.
class Rng {
 public:
  /// Seeds the generator; the same seed yields the same stream everywhere.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 32-bit index in [0, bound). Requires bound > 0.
  uint32_t NextIndex(uint32_t bound) {
    return static_cast<uint32_t>(NextBounded(bound));
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with success probability p in [0, 1].
  bool NextBool(double p);

  /// Samples `count` distinct values from [0, n) without replacement.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t count);

 private:
  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform value in [0, bound). Requires bound > 0.
  uint64_t NextBounded(uint64_t bound);

  uint64_t state_[4];
};

}  // namespace hcore

#endif  // HCORE_UTIL_RNG_H_
