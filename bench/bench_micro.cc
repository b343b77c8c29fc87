// Micro-benchmarks (google-benchmark) for the primitives underlying the
// decomposition: bounded BFS, bucket-queue operations, the all-vertex
// h-degree pass, classic core decomposition, and generators.
//
// Besides the usual console table, every run writes machine-readable JSON
// (default BENCH_micro.json, override with --benchmark_out=...) so repeated
// runs can accumulate a performance trajectory across commits.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/classic_core.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "traversal/bounded_bfs.h"
#include "util/bucket_queue.h"
#include "util/rng.h"

namespace {

using namespace hcore;

const Graph& SocialGraph() {
  static const Graph* g = [] {
    Rng rng(1);
    return new Graph(gen::BarabasiAlbert(20000, 5, &rng));
  }();
  return *g;
}

const Graph& RoadGraph() {
  static const Graph* g = [] {
    Rng rng(2);
    return new Graph(gen::RoadLattice(140, 140, 0.72, &rng));
  }();
  return *g;
}

void BM_BoundedBfs(benchmark::State& state) {
  const Graph& g = SocialGraph();
  const int h = static_cast<int>(state.range(0));
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  Rng rng(3);
  uint64_t visited = 0;
  for (auto _ : state) {
    VertexId v = rng.NextIndex(g.num_vertices());
    visited += bfs.HDegree(g, alive, v, h);
  }
  benchmark::DoNotOptimize(visited);
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_BoundedBfs)->Arg(1)->Arg(2)->Arg(3);

void BM_BucketQueueChurn(benchmark::State& state) {
  const uint32_t n = 100000;
  Rng rng(4);
  for (auto _ : state) {
    BucketQueue q(n, n);
    for (uint32_t v = 0; v < n; ++v) q.Insert(v, rng.NextIndex(n));
    for (uint32_t v = 0; v < n; ++v) q.Move(v, rng.NextIndex(n));
    for (uint32_t v = 0; v < n; ++v) q.Remove(v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3 * n);
}
BENCHMARK(BM_BucketQueueChurn);

void BM_HDegreeAllAlive(benchmark::State& state) {
  const Graph& g = SocialGraph();
  BoundedBfs bfs(g.num_vertices());
  VertexMask alive(g.num_vertices(), true);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    ComputeAllAlive(g, alive, 2, &bfs, &out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g.num_vertices());
}
BENCHMARK(BM_HDegreeAllAlive)->Unit(benchmark::kMillisecond);

void BM_ClassicCore(benchmark::State& state) {
  const Graph& g = SocialGraph();
  for (auto _ : state) {
    ClassicCoreResult r = ClassicCoreDecomposition(g);
    benchmark::DoNotOptimize(r.degeneracy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g.num_vertices());
}
BENCHMARK(BM_ClassicCore)->Unit(benchmark::kMillisecond);

void BM_KhCoreRoad(benchmark::State& state) {
  const Graph& g = RoadGraph();
  const int h = static_cast<int>(state.range(0));
  for (auto _ : state) {
    KhCoreOptions opts;
    opts.h = h;
    opts.algorithm = KhCoreAlgorithm::kLb;
    KhCoreResult r = KhCoreDecomposition(g, opts);
    benchmark::DoNotOptimize(r.degeneracy);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g.num_vertices());
}
BENCHMARK(BM_KhCoreRoad)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_GeneratorBarabasiAlbert(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(5);
    Graph g = gen::BarabasiAlbert(10000, 5, &rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_GeneratorBarabasiAlbert)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to a JSON sidecar file unless the caller picked their own
  // output; the console reporter stays on either way.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Match only --benchmark_out=... so e.g. --benchmark_out_format alone
    // does not suppress the default JSON file.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
