// Shared infrastructure for the table/figure reproduction harness.
//
// Every bench binary prints the same rows/columns as the corresponding table
// or figure of the paper, at a laptop-friendly default scale. Pass --full to
// run closer to the stand-in datasets' full size, and --scale=<f> to
// override the scale factor directly.

#ifndef HCORE_BENCH_BENCH_COMMON_H_
#define HCORE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datasets/datasets.h"

namespace hcore::bench {

struct BenchArgs {
  bool full = false;
  double scale_override = 0.0;  // 0 = use per-bench defaults
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale_override = std::atof(argv[i] + 8);
    }
  }
  return args;
}

/// Loads a dataset at `quick` scale normally or `full_scale` under --full
/// (both relative to the stand-in's own size; see datasets.h).
inline Dataset Load(const BenchArgs& args, const std::string& name,
                    double quick, double full_scale = 1.0) {
  double scale = args.full ? full_scale : quick;
  if (args.scale_override > 0.0) scale = args.scale_override;
  return LoadDataset(name, scale);
}

inline void PrintHeader(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

}  // namespace hcore::bench

#endif  // HCORE_BENCH_BENCH_COMMON_H_
