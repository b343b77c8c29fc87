// Figure 5: scalability of h-LB+UB (single-threaded) on snowball-sampled
// subgraphs of the lj stand-in, for h = 2 and h = 3. Mirrors the paper's
// protocol: for each sample size draw several snowball samples from random
// seeds, decompose, and report mean and standard deviation of the runtime.
//
// Paper shape to reproduce: near-linear growth for h = 2; h = 3 tracks
// h = 2 for small samples and grows steeper for large ones.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/kh_core.h"
#include "graph/sampling.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 5: h-LB+UB runtime vs snowball sample size");
  Dataset d = bench::Load(args, "lj", /*quick=*/0.25);
  std::printf("base graph: n=%u m=%llu\n", d.graph.num_vertices(),
              static_cast<unsigned long long>(d.graph.num_edges()));
  std::printf("%10s %4s %12s %12s\n", "|V'|", "h", "mean (s)", "stddev (s)");

  std::vector<VertexId> sizes = {100, 1000, 5000};
  if (args.full) {
    sizes.push_back(10000);
    sizes.push_back(d.graph.num_vertices());
  }
  const int kSamples = args.full ? 5 : 3;

  for (VertexId size : sizes) {
    for (int h : {2, 3}) {
      std::vector<double> runs;
      for (int s = 0; s < kSamples; ++s) {
        Rng rng(1000 + s);
        Graph sample = size >= d.graph.num_vertices()
                           ? d.graph
                           : SnowballSample(d.graph, size, &rng);
        KhCoreOptions opts;
        opts.h = h;
        opts.algorithm = KhCoreAlgorithm::kLbUb;
        KhCoreResult r = KhCoreDecomposition(sample, opts);
        runs.push_back(r.stats.seconds);
        if (size >= d.graph.num_vertices()) break;  // deterministic, run once
      }
      double mean = 0.0;
      for (double t : runs) mean += t;
      mean /= runs.size();
      double var = 0.0;
      for (double t : runs) var += (t - mean) * (t - mean);
      double sd = runs.size() > 1 ? std::sqrt(var / (runs.size() - 1)) : 0.0;
      std::printf("%10u %4d %12.4f %12.4f\n", size, h, mean, sd);
      std::fflush(stdout);
    }
  }
  return 0;
}
