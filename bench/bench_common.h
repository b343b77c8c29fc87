// Shared infrastructure for the table/figure reproduction harness.
//
// Every bench binary prints the same rows/columns as the corresponding table
// or figure of the paper, at a laptop-friendly default scale. Pass --full to
// run closer to the stand-in datasets' full size, and --scale=<f> to
// override the scale factor directly.

#ifndef HCORE_BENCH_BENCH_COMMON_H_
#define HCORE_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datasets/datasets.h"

namespace hcore::bench {

struct BenchArgs {
  bool full = false;
  double scale_override = 0.0;  // 0 = use per-bench defaults
  std::string json_path;        // --json=<file>, for benches that take it
};

/// Parses --full and --scale=<f>, plus --json=<file> where `takes_json`.
/// Any other argument, and a --scale that is not a positive number, prints
/// an error (in hcore_cli's wording) and exits 1, so a mistyped flag never
/// runs the default configuration.
inline BenchArgs ParseArgs(int argc, char** argv, bool takes_json = false) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      char* end = nullptr;
      args.scale_override = std::strtod(arg + 8, &end);
      if (end == arg + 8 || *end != '\0' ||
          !std::isfinite(args.scale_override) ||
          args.scale_override <= 0.0) {
        std::fprintf(stderr,
                     "error: --scale must be a positive number, got '%s'\n",
                     arg + 8);
        std::exit(1);
      }
    } else if (takes_json && std::strncmp(arg, "--json=", 7) == 0) {
      args.json_path = arg + 7;
    } else {
      const char* eq = std::strchr(arg, '=');
      const int len = eq == nullptr ? static_cast<int>(std::strlen(arg))
                                    : static_cast<int>(eq - arg);
      std::fprintf(stderr, "error: unknown flag %.*s\n", len, arg);
      std::exit(1);
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
