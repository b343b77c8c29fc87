// Table 7: landmark selection for shortest-path estimation. Mean relative
// error of the midpoint estimate over random vertex pairs, with 20
// landmarks chosen by: random-from-max-(k,h)-core for h = 1..4, top-20
// closeness, top-20 betweenness, and top-20 h-degree for h = 1..4. The
// bottom block reports max core index / size of that core, as in the paper.
//
// Paper shape to reproduce: the (k,h)-core strategies beat cc/bc/degree,
// and the error improves as h grows (best around h = 4), while high
// h-degree does NOT improve with h.

#include <cstdio>
#include <vector>

#include "apps/landmarks.h"
#include "bench_common.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 7: landmark selection, mean relative error");

  const uint32_t kLandmarks = 20;
  const uint32_t kPairs = args.full ? 500 : 200;
  const int kRepeats = args.full ? 10 : 3;
  const char* names[] = {"FBco", "caHe", "caAs", "doub"};

  std::printf("%-10s", "");
  for (const char* name : names) std::printf(" %8s", name);
  std::printf("\n");

  std::vector<Dataset> data;
  for (const char* name : names) {
    data.push_back(bench::Load(args, name, /*quick=*/0.10, /*full=*/0.5));
  }

  auto report = [&](const char* label, LandmarkStrategy strategy, int h,
                    bool stochastic) {
    std::printf("%-10s", label);
    for (const Dataset& d : data) {
      double total = 0.0;
      int reps = stochastic ? kRepeats : 1;
      for (int rep = 0; rep < reps; ++rep) {
        Rng pick(10 * rep + h);
        LandmarkOracle oracle(
            d.graph, SelectLandmarks(d.graph, kLandmarks, strategy, h, &pick));
        Rng eval(777);  // same evaluation pairs for every strategy
        total += EvaluateLandmarkError(d.graph, oracle, kPairs, &eval);
      }
      std::printf(" %8.3f", total / reps);
    }
    std::printf("\n");
  };

  for (int h = 1; h <= 4; ++h) {
    char label[16];
    std::snprintf(label, sizeof(label), "core h=%d", h);
    report(label, LandmarkStrategy::kMaxKhCore, h, /*stochastic=*/true);
  }
  report("cc", LandmarkStrategy::kCloseness, 1, false);
  report("bc", LandmarkStrategy::kBetweenness, 1, false);
  for (int h = 1; h <= 4; ++h) {
    char label[16];
    std::snprintf(label, sizeof(label), "deg h=%d", h);
    report(label, LandmarkStrategy::kHDegree, h, false);
  }

  std::printf("\nmax core index / size of max core:\n%-10s", "");
  for (const char* name : names) std::printf(" %12s", name);
  std::printf("\n");
  for (int h = 1; h <= 4; ++h) {
    std::printf("h=%-8d", h);
    for (const Dataset& d : data) {
      KhCoreOptions opts;
      opts.h = h;
      KhCoreResult r = KhCoreDecomposition(d.graph, opts);
      std::printf(" %6u/%-5zu", r.degeneracy, r.MaxCoreVertices().size());
    }
    std::printf("\n");
  }
  return 0;
}
