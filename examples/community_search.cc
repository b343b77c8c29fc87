// Distance-generalized cocktail party (Appendix B): find the tightest
// connected community containing a set of query vertices.
//
// The decomposition is computed ONCE into an HCoreIndex; every query is
// then served from the snapshot, which builds one core-component hierarchy
// per level on first use and reads each answer off it.

#include <cstdio>

#include "apps/community.h"
#include "index/hcore_index.h"
#include "graph/generators.h"
#include "util/rng.h"

int main() {
  hcore::Rng rng(3);
  hcore::Graph g = hcore::gen::PlantedPartition(5, 30, 0.4, 0.01, &rng);
  std::printf("graph: n = %u, m = %llu (5 planted communities of 30)\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()));

  // One build serves every (query, h) pair below.
  hcore::HCoreIndexOptions opts;
  opts.max_h = 2;
  hcore::HCoreIndex index(g, opts);
  auto snap = index.snapshot();

  // Queries inside one community vs straddling two communities.
  const std::vector<std::vector<hcore::VertexId>> queries = {
      {5, 12, 20},     // all in block 0
      {5, 40},         // block 0 + block 1
      {5, 40, 100},    // three blocks
  };
  for (int h = 1; h <= 2; ++h) {
    for (const auto& q : queries) {
      hcore::CommunityResult r = snap->Community(q, h);
      std::printf("h=%d query={", h);
      for (size_t i = 0; i < q.size(); ++i) {
        std::printf("%s%u", i ? "," : "", q[i]);
      }
      if (!r.feasible) {
        std::printf("}: infeasible (query spans components)\n");
        continue;
      }
      std::printf("}: |S| = %zu, min h-degree = %u, core level = %u\n",
                  r.vertices.size(), r.min_h_degree, r.core_level);
    }
  }
  std::printf("decompositions run: %llu, hierarchies built: %llu "
              "(all queries shared them)\n",
              static_cast<unsigned long long>(
                  index.stats().level_decompositions),
              static_cast<unsigned long long>(snap->lazy_builds()));
  return 0;
}
