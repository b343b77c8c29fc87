// Table 4: quality of the bounds. For each dataset and h = 2, 3, 4:
//   left  — mean relative error and fraction of vertices where the bound is
//           tight, for lower bounds LB1 and LB2;
//   right — the same for the h-degree baseline upper bound vs the
//           power-graph UB (Algorithm 5).
//
// Paper shape to reproduce: LB2 dominates LB1; UB is dramatically tighter
// than the h-degree (relative error ~0.01-0.05 vs 0.3-0.7).

#include <cstdio>

#include "bench_common.h"
#include "core/bounds.h"
#include "core/kh_core.h"

namespace {

struct ErrorStats {
  double rel_error = 0.0;
  double tight_fraction = 0.0;
};

// Mean relative error |bound-core|/core over vertices with core > 0, and
// the fraction of vertices (all of them) where bound == core.
ErrorStats Evaluate(const std::vector<uint32_t>& bound,
                    const std::vector<uint32_t>& core) {
  ErrorStats out;
  uint64_t n = core.size();
  if (n == 0) return out;
  double err_sum = 0.0;
  uint64_t err_count = 0;
  uint64_t tight = 0;
  for (size_t v = 0; v < n; ++v) {
    if (bound[v] == core[v]) ++tight;
    if (core[v] > 0) {
      double diff = bound[v] > core[v] ? bound[v] - core[v] : core[v] - bound[v];
      err_sum += diff / core[v];
      ++err_count;
    }
  }
  out.rel_error = err_count ? err_sum / err_count : 0.0;
  out.tight_fraction = static_cast<double>(tight) / n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 4: bound quality — relative error / fraction tight");
  std::printf("%-7s %-4s %15s %15s | %15s %15s\n", "data", "h", "LB1", "LB2",
              "h-degree", "UB");

  for (const char* name : {"caHe", "caAs", "amzn", "rnPA"}) {
    Dataset d = bench::Load(args, name, /*quick=*/0.12, /*full=*/0.5);
    const VertexId n = d.graph.num_vertices();
    for (int h : {2, 3, 4}) {
      // Ground-truth core indexes.
      KhCoreOptions opts;
      opts.h = h;
      KhCoreResult truth = KhCoreDecomposition(d.graph, opts);

      BoundedBfs bfs(n);
      VertexMask alive(n, true);
      std::vector<uint32_t> hdeg;
      ComputeAllAlive(d.graph, alive, h, &bfs, &hdeg);
      std::vector<uint32_t> lb1 = ComputeLB1(d.graph, h, &bfs);
      std::vector<uint32_t> lb2 = ComputeLB2(d.graph, h, lb1);
      std::vector<uint32_t> ub =
          ComputePowerGraphUpperBound(d.graph, h, hdeg, &bfs);

      ErrorStats e1 = Evaluate(lb1, truth.core);
      ErrorStats e2 = Evaluate(lb2, truth.core);
      ErrorStats ed = Evaluate(hdeg, truth.core);
      ErrorStats eu = Evaluate(ub, truth.core);
      std::printf("%-7s h=%-2d %6.2f / %5.1f%% %6.2f / %5.1f%% | "
                  "%6.2f / %5.1f%% %6.2f / %5.1f%%\n",
                  name, h, e1.rel_error, 100 * e1.tight_fraction, e2.rel_error,
                  100 * e2.tight_fraction, ed.rel_error,
                  100 * ed.tight_fraction, eu.rel_error,
                  100 * eu.tight_fraction);
    }
  }
  return 0;
}
