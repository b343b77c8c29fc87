// Graph sampling. Snowball sampling follows the scalability protocol of the
// paper (§6.4): pick a random seed vertex, BFS until the target number of
// vertices is visited, return the induced subgraph.

#ifndef HCORE_GRAPH_SAMPLING_H_
#define HCORE_GRAPH_SAMPLING_H_

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace hcore {

/// Snowball (BFS) sample: random seed, BFS in layer order, stop once
/// `target_size` vertices are collected; returns the induced subgraph.
/// If the seed's component is smaller than target_size the BFS restarts from
/// a fresh random unvisited vertex until enough vertices are gathered.
Graph SnowballSample(const Graph& g, VertexId target_size, Rng* rng);

}  // namespace hcore

#endif  // HCORE_GRAPH_SAMPLING_H_
