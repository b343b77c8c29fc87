// Distance-generalized (k,h)-core decomposition (the paper's §4).
//
// Three exact algorithms are provided:
//   * h-BZ     (Algorithm 1)  — generalized Batagelj–Zaveršnik peeling;
//   * h-LB     (Algorithms 2+3) — peeling with lazy h-degrees seeded by the
//                LB2 lower bound;
//   * h-LB+UB  (Algorithms 4+5+6) — partitioned top-down peeling driven by
//                the power-graph upper bound, with ImproveLB cleaning.
//
// All three produce identical core indexes; they differ only in how many
// h-bounded BFS traversals they perform (Table 3 of the paper). All three
// are driven through the shared PeelingEngine (engine/peeling_engine.h);
// this module contributes only the policies (what a pop assigns, when a
// neighbor takes a unit decrement, a recomputation or a demotion) and the
// h-LB+UB partition schedule.
//
// Two departures from the paper make h-LB and h-LB+UB run fewer BFS than
// its Table 3 counts, with the same cores. A neighbor u at distance d < h
// from a removed vertex w is not recomputed (Algorithm 3, line 19): its key
// drops by |B(w, h - d)|, the ball that holds every vertex u can lose, and
// only when that bound gets too weak is u demoted back to its lazy
// lower-bound key, so one BFS at its next pop covers every removal near it.
// And ImproveLB (Algorithm 6) skips the candidates that a higher partition
// already settled (Observation 3).
//
// Everything runs on the calling thread. The paper's §4.6 parallelizes
// h-degree batches across worker threads; that scheme is not reproduced
// (README "Concurrency" has the measurements that retired it).

#ifndef HCORE_CORE_KH_CORE_H_
#define HCORE_CORE_KH_CORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// Which decomposition algorithm to run.
enum class KhCoreAlgorithm {
  /// h-LB at every h; no density test is involved. The paper's §6.2 has
  /// h-LB+UB winning from h = 3. Here h-LB's ball-bounded demotion makes it
  /// faster at every h measured: 1.4-2.5x at h = 3 on every dataset
  /// stand-in that takes over 1 ms (scale 0.1); at scale 0.3 on sytb, hyves
  /// and lj, 1.5-2.7x at h = 4 and 1.3-2.5x at h = 5.
  /// h-LB+UB (kLbUb) now serves explicit reproduction only (`--algo=lbub`,
  /// Tables 3-5, Fig. 5).
  kAuto,
  kBz,    ///< Algorithm 1 (baseline).
  kLb,    ///< Algorithms 2+3.
  kLbUb,  ///< Algorithms 4+5+6.
};

/// Lower-bound ablation (Table 5, left). kLb2 is the paper's default.
enum class LowerBoundMode {
  kNone,  ///< No lower bound: h-LB degenerates to h-BZ behaviour.
  kLb1,   ///< Observation 1 only.
  kLb2,   ///< Observations 1+2 (default).
};

/// Upper-bound ablation for h-LB+UB (Table 5, right). kPowerGraph is the
/// paper's default.
enum class UpperBoundMode {
  kHDegree,     ///< Plain h-degree as the upper bound.
  kPowerGraph,  ///< Algorithm 5 (implicit power-graph peeling).
};

/// Vertex relabeling applied before peeling (cache-locality pass). The
/// decomposition runs on a relabeled copy whose hot h-bounded BFS walks
/// near-sequential memory, and core indexes are mapped back to the caller's
/// ids by KhCoreDecomposition — results are identical for every mode.
enum class VertexOrdering {
  kNone,  ///< Peel the graph as given.
  /// Locality heuristic: relabel in BFS order (BfsOrder, graph/ordering.h)
  /// iff the mean |v - neighbor| id gap over ~1k sampled vertices exceeds
  /// kScrambledGapFraction (0.15) * n. BFS order makes neighborhoods
  /// index-local. Measured at h = 2 on 300k-500k vertex graphs:
  /// locality-preserving inputs score a gap
  /// fraction <= 0.034 and BFS relabeling there costs 24-53% (road 1.24x,
  /// Watts-Strogatz 1.53x slower) — kAuto keeps them unrelabeled; scrambled
  /// ids score ~0.33 and relabeling saves 11-49% (scrambled road 0.51x,
  /// WS 0.82x, BA 0.89x total time incl. the relabel) — kAuto relabels. The
  /// one high-gap case that does not benefit (BA generator order, hubs
  /// first) loses only ~1%.
  kAuto,
};

// --- Benchmark compat: delete with the next change to perfbench/ ---------
// The frozen perfbench/ sets KhCoreOptions::parallel,
// KhCoreOptions::num_threads and KhCoreOptions::extra_upper_bound. The
// round-synchronous parallel peel and the threaded h-degree batches the
// first two once selected are gone, and no library path supplies an upper
// bound any more, so all three fields are accepted and ignored: every
// decomposition runs the one sequential PeelingEngine loop, and h-LB+UB
// always computes its own upper bound (Algorithm 5 or the h-degree).
enum class ParallelPeelMode : uint8_t { kAuto, kOff, kOn };
// --- end benchmark compat -------------------------------------------------

/// Options for KhCoreDecomposition.
struct KhCoreOptions {
  /// Distance threshold h >= 1. h = 1 routes to the classic linear-time
  /// algorithm regardless of `algorithm`.
  int h = 2;
  KhCoreAlgorithm algorithm = KhCoreAlgorithm::kAuto;
  /// Partition width S for h-LB+UB (number of distinct upper-bound values
  /// per partition, paper §4.3). 0 selects an automatic width that targets
  /// roughly 16 partitions; otherwise must be >= 1.
  int partition_size = 0;
  /// Benchmark compat (see ParallelPeelMode): accepted and ignored.
  int num_threads = 1;
  ParallelPeelMode parallel = ParallelPeelMode::kAuto;
  const std::vector<uint32_t>* extra_upper_bound = nullptr;
  LowerBoundMode lower_bound = LowerBoundMode::kLb2;
  UpperBoundMode upper_bound = UpperBoundMode::kPowerGraph;
  /// Cache-locality relabeling (see VertexOrdering). Does not change the
  /// result, only the memory-access order of the peel.
  VertexOrdering ordering = VertexOrdering::kAuto;
  /// Optional externally-known per-vertex lower bound on the core index
  /// (HCoreIndex passes the previous epoch's cores after a pure-insert
  /// batch: distances only shrink). Must have one entry per vertex and
  /// satisfy extra[v] <= core_h(v); combined with the configured
  /// LowerBoundMode by taking the maximum. Not owned.
  const std::vector<uint32_t>* extra_lower_bound = nullptr;
};

/// Cost counters for one decomposition run.
struct KhCoreStats {
  /// Total vertices visited over all h-bounded BFS traversals — the paper's
  /// "number of computed point-to-point distances" (Table 3). A removal
  /// that follows its own pop-time materialization in h-LB and h-LB+UB
  /// reuses that BFS and adds no visits.
  uint64_t visited_vertices = 0;
  /// Number of full h-degree computations (BFS runs), pop-time
  /// materializations included; the BFS that collects a removed vertex's
  /// neighborhood is not counted here.
  uint64_t hdegree_computations = 0;
  /// Number of O(1) decrement updates taken instead of a BFS: unit
  /// decrements, plus h-LB's decrements by a ball size.
  uint64_t decrement_updates = 0;
  /// Vertices popped by the peel, lazy re-queues included (h-BZ pops each
  /// vertex exactly once; h-LB pops a vertex once per materialization that
  /// re-queues it, plus once for its removal). 0 for h = 1 (the classic
  /// path reports no engine counters).
  uint64_t pops = 0;
  /// Partitions processed (h-LB+UB only).
  uint32_t partitions = 0;
  /// Wall-clock seconds, total and for the bound-precomputation phase.
  double seconds = 0.0;
  double bound_seconds = 0.0;

  /// Field-wise accumulation (sweeps and indexes sum per-level runs).
  void Add(const KhCoreStats& other) {
    visited_vertices += other.visited_vertices;
    hdegree_computations += other.hdegree_computations;
    decrement_updates += other.decrement_updates;
    pops += other.pops;
    partitions += other.partitions;
    seconds += other.seconds;
    bound_seconds += other.bound_seconds;
  }
};

/// Result of a (k,h)-core decomposition.
struct KhCoreResult {
  /// core[v]: largest k such that v belongs to the (k,h)-core.
  std::vector<uint32_t> core;
  /// h-degeneracy Ĉ_h(G): largest k with a non-empty (k,h)-core.
  uint32_t degeneracy = 0;
  int h = 1;
  KhCoreStats stats;

  /// Number of distinct non-empty cores (distinct values of core[v]),
  /// the right-hand number of the paper's Table 2.
  uint32_t NumDistinctCores() const;

  /// Vertices of the (k,h)-core, i.e. {v : core[v] >= k}.
  std::vector<VertexId> CoreVertices(uint32_t k) const;

  /// Vertices of the innermost core (k = degeneracy).
  std::vector<VertexId> MaxCoreVertices() const { return CoreVertices(degeneracy); }

  /// sizes[k] = |C_k| for k in [0, degeneracy] (cumulative, non-increasing).
  std::vector<uint32_t> CoreSizes() const;
};

/// Computes the (k,h)-core decomposition of `g`.
///
/// All algorithm choices return identical `core` values; pick via
/// `options.algorithm` for performance experiments. Invalid options
/// (h < 1, partition_size < 0) abort via HCORE_CHECK; partition_size 0
/// picks the automatic width.
KhCoreResult KhCoreDecomposition(const Graph& g, const KhCoreOptions& options = {});

/// Vertices of the (k,h)-core {v : core[v] >= k} from a raw core vector
/// (free-function form of KhCoreResult::CoreVertices, for precomputed or
/// snapshot-served vectors).
std::vector<VertexId> CoreVerticesAtLevel(const std::vector<uint32_t>& core,
                                          uint32_t k);

/// Human-readable name of an algorithm ("h-BZ", "h-LB", "h-LB+UB", "auto").
std::string ToString(KhCoreAlgorithm algorithm);

}  // namespace hcore

#endif  // HCORE_CORE_KH_CORE_H_
