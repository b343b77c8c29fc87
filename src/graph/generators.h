// Synthetic graph generators.
//
// These are the workload substrate for the benchmark harness: the paper
// evaluates on public SNAP/KONECT graphs which are unavailable offline, so
// each benchmark dataset is a deterministic synthetic stand-in drawn from the
// same structural class (LoadDataset in datasets/datasets.cc maps each
// dataset to its generator and parameters). The generators are also used
// heavily by the property-based test suites.

#ifndef HCORE_GRAPH_GENERATORS_H_
#define HCORE_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace hcore::gen {

// ---------------------------------------------------------------------------
// Deterministic toy graphs (used by unit tests and the paper's examples).
// ---------------------------------------------------------------------------

/// Star with one hub (vertex 0) and n-1 leaves.
Graph Star(VertexId n);

/// Complete graph K_n.
Graph Complete(VertexId n);

/// rows x cols grid; vertex (r, c) has id r*cols + c.
Graph Grid(VertexId rows, VertexId cols);

/// The 13-vertex example graph of Figure 1 in the paper. Vertex ids are
/// shifted down by one relative to the figure (paper vertex i -> id i-1).
/// Its (k,1)-core decomposition puts every vertex in core 2; its (k,2)-core
/// decomposition yields core(v1)=4, core(v2)=core(v3)=5, core(v4..v13)=6.
Graph PaperFigure1();

// ---------------------------------------------------------------------------
// Random graph models. All are deterministic given the Rng seed.
// ---------------------------------------------------------------------------

/// Erdős–Rényi G(n, p): each of the n(n-1)/2 edges appears with probability
/// p, sampled with geometric skipping so the cost is O(n + m).
Graph ErdosRenyiGnp(VertexId n, double p, Rng* rng);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach + 1` vertices, then each new vertex attaches to `attach` existing
/// vertices chosen proportionally to degree.
Graph BarabasiAlbert(VertexId n, uint32_t attach, Rng* rng);

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side (degree 2k), each edge rewired with probability `beta`.
Graph WattsStrogatz(VertexId n, uint32_t k, double beta, Rng* rng);

/// Chung–Lu model with a power-law expected-degree sequence
/// w_i ∝ (i + i0)^{-1/(gamma-1)}, scaled so the expected number of edges is
/// ~target_edges. Produces heavy-tailed social/biological-like graphs.
Graph ChungLuPowerLaw(VertexId n, uint64_t target_edges, double gamma,
                      Rng* rng);

/// Road-network-like graph: a rows x cols lattice where each edge is kept
/// with probability keep_prob and a few random local diagonals are added.
/// High diameter, degree <= ~4-8, like rnPA/rnTX in the paper.
Graph RoadLattice(VertexId rows, VertexId cols, double keep_prob, Rng* rng);

/// Planted-partition graph: `communities` blocks of `block_size` vertices,
/// intra-block edge probability p_in, inter-block probability p_out.
/// Collaboration-network-like (dense local clusters, e.g. jazz/caHe/caAs).
Graph PlantedPartition(uint32_t communities, VertexId block_size, double p_in,
                       double p_out, Rng* rng);

/// Social-like graph with star-heavy degree spikes (sytb/hyves class):
/// Chung–Lu backbone plus `hubs` vertices connected to a large random
/// fraction of the graph.
Graph StarHeavySocial(VertexId n, uint64_t target_edges, uint32_t hubs,
                      double hub_fraction, Rng* rng);

/// Collaboration-network model: overlays `num_cliques` cliques ("papers" /
/// "bands") whose sizes follow a truncated power law in [min_size,
/// max_size] with exponent `tail` (> 1; larger = thinner tail). Members are
/// sampled uniformly. Reproduces the signature of co-authorship graphs:
/// high clustering and a classic degeneracy driven by the largest clique
/// (e.g. ca-HepPh's 238-core comes from one ~239-author collaboration).
Graph CliqueOverlay(VertexId n, uint32_t num_cliques, uint32_t min_size,
                    uint32_t max_size, double tail, Rng* rng);

/// Union of `g` and enough random edges to make the graph connected (joins
/// components with random cross edges). Preserves determinism via rng.
Graph Connectify(const Graph& g, Rng* rng);

}  // namespace hcore::gen

#endif  // HCORE_GRAPH_GENERATORS_H_
