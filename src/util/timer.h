// Wall-clock timer used by benchmarks and decomposition statistics.

#ifndef HCORE_UTIL_TIMER_H_
#define HCORE_UTIL_TIMER_H_

#include <chrono>

namespace hcore {

/// Monotonic wall-clock stopwatch. Starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hcore

#endif  // HCORE_UTIL_TIMER_H_
