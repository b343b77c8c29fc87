// Table 1: characteristics of the datasets (|V|, |E|, avg deg, max deg,
// diameter). The paper reports these for 13 public graphs; here the rows
// describe the synthetic stand-ins (LoadDataset in datasets/datasets.cc),
// so |V|/|E| match the paper only for the small biological/collaboration
// graphs and are reduced for the large ones.

#include <cstdio>

#include "bench_common.h"
#include "traversal/distances.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "Table 1: dataset characteristics (synthetic stand-ins)");
  std::printf("%-7s %10s %12s %9s %9s %6s  %s\n", "name", "|V|", "|E|",
              "avg deg", "max deg", "diam", "family");
  for (const std::string& name : DatasetNames()) {
    Dataset d = bench::Load(args, name, /*quick=*/name == "lj" ? 0.2 : 0.5);
    const Graph& g = d.graph;
    Rng rng(1);
    // Exact diameter on small graphs, double-sweep estimate on large ones.
    uint32_t diam = g.num_vertices() <= 2000
                        ? ExactDiameter(g)
                        : EstimateDiameter(g, 4, &rng);
    std::printf("%-7s %10u %12llu %9.2f %9u %5u%s  %s\n", d.name.c_str(),
                g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
                g.AverageDegree(), g.MaxDegree(), diam,
                g.num_vertices() <= 2000 ? " " : "~", d.family.c_str());
  }
  std::printf(
      "\n('~' marks double-sweep diameter estimates; pass --full for the\n"
      "stand-ins' full scale.)\n");
  return 0;
}
