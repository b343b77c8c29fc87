// hcore command-line tool.
//
//   hcore_cli decompose  --input=G.txt --h=2 [--algo=auto|bz|lb|lbub]
//                        [--partition=S] [--ordering=none|auto]
//                        [--output=cores.txt]
//   hcore_cli hierarchy  --input=G.txt --h=2 [--limit=60] [--dot=G.dot]
//   hcore_cli stats      --input=G.txt
//   hcore_cli spectrum   --input=G.txt --h-max=4 [--output=spectrum.txt]
//   hcore_cli hclub      --input=G.txt --h=2 [--solver=bb|it] [--no-core]
//   hcore_cli hclique    --input=G.txt --h=2
//   hcore_cli coloring   --input=G.txt --h=2 [--output=colors.txt]
//   hcore_cli community  --input=G.txt --h=2 --query=1,5,9
//   hcore_cli densest    --input=G.txt --h=2
//   hcore_cli generate   --model=ba|gnp|ws|road|cliques --n=1000 [--seed=S]
//                        --output=G.txt
//   hcore_cli serve      --input=G.txt [--h-max=4] [--algo=..]
//
// Every command rejects a flag it does not read (`error: unknown flag --X`),
// a value an enumerated flag does not list, an integer flag whose value is
// not a whole decimal integer or is below its minimum (0 for counts, 1 for
// --h, --h-max and --attach), a --p or --beta that is not a number
// in [0, 1], and a malformed --query, with exit code 1 before it loads any
// input. `generate --model=ws` also needs --n > 2 * --k.
//
// `serve` builds an HCoreIndex (index/hcore_index.h) and answers
// query/update commands from stdin (REPL or piped batch), one per line,
// each query against the index's current epoch snapshot:
//
//   core <v> <h>             core index of v at threshold h
//   spectrum <v>             core_1(v) .. core_H(v)
//   component <v> <k> <h>    connected component of v in the (k,h)-core
//   community <h> v1,v2,..   cocktail-party community
//   densest <h> <top-k>      core levels of threshold h with the highest
//                            edge density |E(G[C_k])|/|C_k| (f_1/2; at
//                            h >= 2 not the paper's f_h, which the
//                            `densest` subcommand maximizes)
//   insert <u> <v>           stage an edge insertion into the pending batch
//   delete <u> <v>           stage an edge deletion into the pending batch
//   apply                    apply the pending batch (one epoch); inserts
//                            naming an id >= n + 2^20 are rejected
//   stats                    epoch, graph size, cumulative counters
//   stats reset              zero the cumulative counters (epochs stay)
//   quit                     exit
//
// Point queries are answered from the warm snapshot — the Table-3-style BFS
// counters shown by `stats` stay flat however many queries run; only
// `apply` (and the initial build) moves them. The REPL output is locked by
// tests/golden/serve_shards1.golden.
//
// The core-decomposition flags (--h, --algo, --partition, --ordering) map
// 1:1 onto KhCoreOptions and apply to every command that runs a
// decomposition (decompose, hierarchy, spectrum, hclub, community, densest,
// serve). `spectrum` and `serve` read the sweep depth from --h-max.
//
// Graphs are SNAP-format edge lists ('#'-comments, one "u v" per line).
// Vertex ids printed by the tool refer to the relabeled ids (dense,
// first-appearance order).

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/coloring.h"
#include "apps/community.h"
#include "core/hierarchy.h"
#include "apps/densest.h"
#include "apps/hclique.h"
#include "apps/hclub.h"
#include "core/kh_core.h"
#include "core/spectrum.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "index/hcore_index.h"
#include "traversal/distances.h"
#include "util/rng.h"

namespace {

using namespace hcore;

/// `s` as a whole decimal number of type T, or nullopt (empty, junk,
/// trailing characters, out of range).
template <typename T>
std::optional<T> ParseDecimal(const std::string& s) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  /// Integer flags are validated up front (BadFlagValue).
  int GetInt(const std::string& key, int def) const {
    auto it = values.find(key);
    if (it == values.end()) return def;
    return ParseDecimal<int>(it->second).value_or(def);
  }
  /// Probability flags are validated up front (BadFlagValue).
  double GetProbability(const std::string& key, double def) const {
    auto it = values.find(key);
    if (it == values.end()) return def;
    return ParseDecimal<double>(it->second).value_or(def);
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values.insert_or_assign(arg.substr(2), std::string("1"));
    } else {
      flags.values.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<Graph> LoadInput(const Flags& flags) {
  std::string path = flags.Get("input");
  if (path.empty()) return Status::InvalidArgument("--input=<file> required");
  return io::ReadEdgeList(path);
}

KhCoreOptions CoreOptions(const Flags& flags) {
  KhCoreOptions opts;
  opts.h = flags.GetInt("h", 2);
  opts.partition_size = flags.GetInt("partition", 0);
  const std::string alg = flags.Get("algo", "auto");
  if (alg == "bz") {
    opts.algorithm = KhCoreAlgorithm::kBz;
  } else if (alg == "lb") {
    opts.algorithm = KhCoreAlgorithm::kLb;
  } else if (alg == "lbub") {
    opts.algorithm = KhCoreAlgorithm::kLbUb;
  }
  if (flags.Get("ordering", "auto") == "none") {
    opts.ordering = VertexOrdering::kNone;
  }
  return opts;
}

/// Sweep depth for spectrum/serve.
int HMax(const Flags& flags) { return flags.GetInt("h-max", 4); }

/// Comma-separated decimal vertex ids, or nullopt when any token is empty,
/// not a number, or beyond the 32-bit id range.
std::optional<std::vector<VertexId>> ParseIdList(const std::string& s) {
  std::vector<VertexId> out;
  size_t pos = 0;
  for (;;) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::optional<VertexId> id =
        ParseDecimal<VertexId>(s.substr(pos, comma - pos));
    if (!id) return std::nullopt;
    out.push_back(*id);
    if (comma == s.size()) return out;
    pos = comma + 1;
  }
}

int CmdDecompose(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  KhCoreOptions opts = CoreOptions(flags);
  KhCoreResult r = KhCoreDecomposition(g.value(), opts);
  std::printf("n=%u m=%llu h=%d degeneracy=%u distinct_cores=%u\n",
              g.value().num_vertices(),
              static_cast<unsigned long long>(g.value().num_edges()), opts.h,
              r.degeneracy, r.NumDistinctCores());
  // Under --algo=auto, partitions=0 at h >= 2 means h-LB ran: h-LB+UB
  // processes at least one partition.
  std::printf(
      "time=%.3fs visits=%llu hdeg_computations=%llu pops=%llu "
      "decrements=%llu partitions=%u\n",
      r.stats.seconds,
      static_cast<unsigned long long>(r.stats.visited_vertices),
      static_cast<unsigned long long>(r.stats.hdegree_computations),
      static_cast<unsigned long long>(r.stats.pops),
      static_cast<unsigned long long>(r.stats.decrement_updates),
      r.stats.partitions);
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex core_index (h=" << opts.h << ")\n";
    for (VertexId v = 0; v < r.core.size(); ++v) {
      out << v << ' ' << r.core[v] << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdHierarchy(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  KhCoreOptions opts = CoreOptions(flags);
  KhCoreResult r = KhCoreDecomposition(g.value(), opts);
  CoreHierarchy tree = BuildCoreHierarchy(g.value(), r.core);
  std::printf("core-component hierarchy (h=%d): %zu nodes, %zu roots\n",
              opts.h, tree.nodes.size(), tree.roots.size());
  // Print the forest, depth-first, sizes and levels only.
  struct Frame {
    uint32_t node;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = tree.roots.rbegin(); it != tree.roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  int printed = 0;
  const int limit = flags.GetInt("limit", 60);
  while (!stack.empty() && printed < limit) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    const CoreHierarchyNode& n = tree.nodes[node];
    std::printf("%*sk=%u |component|=%u (+%zu new)\n", 2 * depth, "", n.level,
                n.subtree_size, n.new_vertices.size());
    ++printed;
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  if (!stack.empty()) std::printf("... (raise --limit to see more)\n");
  std::string dot_path = flags.Get("dot");
  if (!dot_path.empty()) {
    Status s = io::WriteDot(g.value(), dot_path, &r.core);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("wrote %s (vertices annotated with core indexes)\n",
                dot_path.c_str());
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const Graph& graph = g.value();
  Rng rng(1);
  std::printf("vertices: %u\nedges: %llu\navg degree: %.2f\nmax degree: %u\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.AverageDegree(), graph.MaxDegree());
  std::printf("diameter (double-sweep estimate): %u\n",
              EstimateDiameter(graph, 4, &rng));
  return 0;
}

int CmdSpectrum(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  SpectrumOptions opts;
  opts.max_h = HMax(flags);
  opts.base = CoreOptions(flags);
  SpectrumResult r = KhCoreSpectrum(g.value(), opts);
  std::printf("h:          ");
  for (int h = 1; h <= opts.max_h; ++h) std::printf(" %8d", h);
  std::printf("\ndegeneracy: ");
  for (uint32_t d : r.degeneracy) std::printf(" %8u", d);
  std::printf("\n");
  for (int h = 2; h <= opts.max_h; ++h) {
    std::printf("corr(core_1, core_%d) = %.3f\n", h, r.LevelCorrelation(1, h));
  }
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex core_1 .. core_" << opts.max_h << "\n";
    for (VertexId v = 0; v < g.value().num_vertices(); ++v) {
      out << v;
      for (const auto& level : r.core) out << ' ' << level[v];
      out << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdHClub(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  HClubOptions opts;
  opts.h = flags.GetInt("h", 2);
  opts.solver = flags.Get("solver", "bb") == "it" ? HClubSolver::kIterative
                                                  : HClubSolver::kBranchAndBound;
  opts.max_nodes = static_cast<uint64_t>(flags.GetInt("max-nodes", 0));
  HClubResult r = flags.Has("no-core")
                      ? MaxHClub(g.value(), opts)
                      : MaxHClubWithCorePrefilter(g.value(), opts,
                                                  CoreOptions(flags));
  std::printf("max %d-club size: %u%s  (%.3fs, %llu nodes)\nmembers:",
              opts.h, r.size(), r.optimal ? "" : " (budget hit, lower bound)",
              r.seconds, static_cast<unsigned long long>(r.nodes_explored));
  for (VertexId v : r.members) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdHClique(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const int h = flags.GetInt("h", 2);
  HCliqueResult r = MaxHClique(g.value(), h);
  std::printf("max %d-clique size: %u  (%.3fs, %llu nodes)\nmembers:", h,
              r.size(), r.seconds,
              static_cast<unsigned long long>(r.nodes_explored));
  for (VertexId v : r.members) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdColoring(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const int h = flags.GetInt("h", 2);
  ColoringResult r = DistanceHColoring(g.value(), h);
  std::printf("distance-%d coloring: %u colors (guarantee <= %u)\n", h,
              r.num_colors, r.bound);
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex color (h=" << h << ")\n";
    for (VertexId v = 0; v < r.color.size(); ++v) {
      out << v << ' ' << r.color[v] << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdCommunity(const Flags& flags) {
  const std::optional<std::vector<VertexId>> parsed =
      ParseIdList(flags.Get("query"));
  if (!parsed) return Fail("--query must be a list of vertex ids v1,v2,...");
  const std::vector<VertexId>& query = *parsed;
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  for (VertexId v : query) {
    if (v >= g.value().num_vertices()) return Fail("query vertex out of range");
  }
  const int h = flags.GetInt("h", 2);
  CommunityResult r = DistanceCocktailParty(g.value(), query, h,
                                            CoreOptions(flags));
  if (!r.feasible) {
    std::printf("infeasible: query vertices span multiple components\n");
    return 0;
  }
  std::printf("community: |S|=%zu min_h_degree=%u core_level=%u\nmembers:",
              r.vertices.size(), r.min_h_degree, r.core_level);
  for (VertexId v : r.vertices) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdDensest(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const int h = flags.GetInt("h", 2);
  DensestResult core = DensestByCoreDecomposition(g.value(), h,
                                                  CoreOptions(flags));
  DensestResult greedy = DensestByGreedyPeeling(g.value(), h);
  std::printf("core-approx: f_%d=%.3f |S|=%zu\n", h, core.density,
              core.vertices.size());
  std::printf("greedy-peel: f_%d=%.3f |S|=%zu\n", h, greedy.density,
              greedy.vertices.size());
  return 0;
}

void PrintServeStats(const HCoreIndex& index) {
  auto snap = index.snapshot();
  const HCoreIndexStats s = index.stats();
  std::printf("epoch=%llu n=%u m=%llu h_max=%d\n",
              static_cast<unsigned long long>(snap->epoch()),
              snap->graph().num_vertices(),
              static_cast<unsigned long long>(snap->graph().num_edges()),
              index.max_h());
  std::printf(
      "batches=%llu edits=%llu level_runs=%llu "
      "levels_unchanged=%llu localized=%llu fallback_repeels=%llu\n"
      "bfs_visits=%llu hdeg_computations=%llu decrements=%llu "
      "decomposition_seconds=%.3f\n",
      static_cast<unsigned long long>(s.batches_applied),
      static_cast<unsigned long long>(s.edits_applied),
      static_cast<unsigned long long>(s.level_decompositions),
      static_cast<unsigned long long>(s.levels_unchanged),
      static_cast<unsigned long long>(s.localized_updates),
      static_cast<unsigned long long>(s.fallback_repeels),
      static_cast<unsigned long long>(s.decomposition.visited_vertices),
      static_cast<unsigned long long>(s.decomposition.hdegree_computations),
      static_cast<unsigned long long>(s.decomposition.decrement_updates),
      s.decomposition.seconds);
}

void PrintVertexList(const std::vector<VertexId>& vertices, size_t limit) {
  const size_t shown = std::min(vertices.size(), limit);
  for (size_t i = 0; i < shown; ++i) std::printf(" %u", vertices[i]);
  if (shown < vertices.size()) {
    std::printf(" ... (%zu more)", vertices.size() - shown);
  }
  std::printf("\n");
}

int CmdServe(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  HCoreIndexOptions opts;
  opts.max_h = HMax(flags);
  opts.base = CoreOptions(flags);

  std::printf("building index: n=%u m=%llu h_max=%d ...\n",
              g.value().num_vertices(),
              static_cast<unsigned long long>(g.value().num_edges()),
              opts.max_h);
  HCoreIndex index(std::move(g.value()), opts);
  std::printf("ready (%.3fs); try 'help'\n",
              index.stats().decomposition.seconds);

  const size_t print_limit =
      static_cast<size_t>(flags.GetInt("print-limit", 32));
  std::vector<EdgeEdit> pending;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    auto view = index.snapshot();
    const VertexId n = view->graph().num_vertices();
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "core <v> <h> | spectrum <v> | component <v> <k> <h> |\n"
          "community <h> <v1,v2,...> | densest <h> <top-k> |\n"
          "insert <u> <v> | delete <u> <v> | apply | stats | stats reset |\n"
          "quit\n");
    } else if (cmd == "core") {
      VertexId v;
      int h;
      if (!(in >> v >> h) || v >= n || h < 1 || h > index.max_h()) {
        std::printf("error: usage core <v> <h>\n");
        continue;
      }
      std::printf("core_%d(%u) = %u\n", h, v, view->CoreOf(v, h));
    } else if (cmd == "spectrum") {
      VertexId v;
      if (!(in >> v) || v >= n) {
        std::printf("error: usage spectrum <v>\n");
        continue;
      }
      std::printf("spectrum(%u) =", v);
      for (uint32_t c : view->Spectrum(v)) std::printf(" %u", c);
      std::printf("\n");
    } else if (cmd == "component") {
      VertexId v;
      uint32_t k;
      int h;
      if (!(in >> v >> k >> h) || v >= n || h < 1 || h > index.max_h()) {
        std::printf("error: usage component <v> <k> <h>\n");
        continue;
      }
      std::vector<VertexId> component = view->CoreComponentOf(v, k, h);
      std::printf("component(v=%u, k=%u, h=%d): |C|=%zu\n", v, k, h,
                  component.size());
      if (!component.empty()) PrintVertexList(component, print_limit);
    } else if (cmd == "community") {
      int h;
      std::string ids;
      if (!(in >> h >> ids) || h < 1 || h > index.max_h()) {
        std::printf("error: usage community <h> <v1,v2,...>\n");
        continue;
      }
      const std::optional<std::vector<VertexId>> query = ParseIdList(ids);
      if (!query) {
        std::printf("error: usage community <h> <v1,v2,...>\n");
        continue;
      }
      bool valid = true;
      for (VertexId v : *query) valid &= (v < n);
      if (!valid) {
        std::printf("error: query vertex out of range\n");
        continue;
      }
      CommunityResult r = view->Community(*query, h);
      if (!r.feasible) {
        std::printf("infeasible: query spans components\n");
        continue;
      }
      std::printf("community: |S|=%zu min_h_degree=%u core_level=%u\n",
                  r.vertices.size(), r.min_h_degree, r.core_level);
      PrintVertexList(r.vertices, print_limit);
    } else if (cmd == "densest") {
      int h;
      int top_k;
      if (!(in >> h >> top_k) || h < 1 || h > index.max_h() || top_k < 1) {
        std::printf("error: usage densest <h> <top-k>\n");
        continue;
      }
      auto rows = view->TopDensestLevels(h, static_cast<size_t>(top_k));
      for (const auto& row : rows) {
        std::printf("k=%u |C_k|=%u |E(C_k)|=%llu density=%.3f\n", row.k,
                    row.vertices, static_cast<unsigned long long>(row.edges),
                    row.density);
      }
      if (rows.empty()) std::printf("(no non-empty core levels)\n");
    } else if (cmd == "insert" || cmd == "delete") {
      VertexId u, v;
      if (!(in >> u >> v)) {
        std::printf("error: usage %s <u> <v>\n", cmd.c_str());
        continue;
      }
      pending.push_back(cmd == "insert" ? EdgeEdit::Insert(u, v)
                                        : EdgeEdit::Delete(u, v));
      std::printf("staged (%zu pending; 'apply' to commit)\n",
                  pending.size());
    } else if (cmd == "apply") {
      const uint64_t rejected_before = index.stats().edits_rejected;
      const size_t applied = index.ApplyBatch(pending);
      const uint64_t rejected = index.stats().edits_rejected - rejected_before;
      std::printf("applied %zu/%zu edits -> epoch %llu", applied,
                  pending.size(),
                  static_cast<unsigned long long>(index.snapshot()->epoch()));
      if (rejected > 0) {
        std::printf(" (%llu rejected: vertex id beyond n + 2^20)",
                    static_cast<unsigned long long>(rejected));
      }
      std::printf("\n");
      pending.clear();
    } else if (cmd == "stats") {
      std::string sub;
      if (!(in >> sub)) {
        PrintServeStats(index);
      } else if (sub == "reset") {
        index.ResetStats();
        std::printf("stats reset\n");
      } else {
        std::printf("error: usage stats [reset]\n");
      }
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  std::string model = flags.Get("model", "ba");
  const VertexId n = static_cast<VertexId>(flags.GetInt("n", 1000));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 3));
  if (model == "ws" && n <= 2 * k) {
    return Fail("--model=ws needs --n > 2 * --k");
  }
  std::string out_path = flags.Get("output");
  if (out_path.empty()) return Fail("--output=<file> required");
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  Graph g;
  if (model == "ba") {
    g = gen::BarabasiAlbert(n, static_cast<uint32_t>(flags.GetInt("attach", 3)),
                            &rng);
  } else if (model == "gnp") {
    g = gen::ErdosRenyiGnp(n, flags.GetProbability("p", 0.01), &rng);
  } else if (model == "ws") {
    g = gen::WattsStrogatz(n, k, flags.GetProbability("beta", 0.1), &rng);
  } else if (model == "road") {
    VertexId side = static_cast<VertexId>(std::max(2.0, std::sqrt(double(n))));
    g = gen::RoadLattice(side, side, 0.72, &rng);
  } else if (model == "cliques") {
    g = gen::CliqueOverlay(n, n / 2, 2, std::max<uint32_t>(8, n / 50), 2.0,
                           &rng);
  } else {
    return Fail("unknown model: " + model);
  }
  Status s = io::WriteEdgeList(g, out_path);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %s: n=%u m=%llu\n", out_path.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

/// One subcommand: its entry point and every flag it reads. Commands that
/// run a decomposition (`core`) also read the CoreOptions flags.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  bool core;
  std::vector<std::string> flags;

  bool Accepts(const std::string& flag) const {
    static const std::vector<std::string> kCoreFlags = {
        "h", "algo", "partition", "ordering"};
    auto listed = [&flag](const std::vector<std::string>& list) {
      return std::find(list.begin(), list.end(), flag) != list.end();
    };
    return listed(flags) || (core && listed(kCoreFlags));
  }
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> kCommands = {
      {"decompose", CmdDecompose, true, {"input", "output"}},
      {"hierarchy", CmdHierarchy, true, {"input", "limit", "dot"}},
      {"stats", CmdStats, false, {"input"}},
      {"spectrum", CmdSpectrum, true, {"input", "h-max", "output"}},
      {"hclub", CmdHClub, true, {"input", "solver", "max-nodes", "no-core"}},
      {"hclique", CmdHClique, false, {"input", "h"}},
      {"coloring", CmdColoring, false, {"input", "h", "output"}},
      {"community", CmdCommunity, true, {"input", "query"}},
      {"densest", CmdDensest, true, {"input"}},
      {"generate",
       CmdGenerate,
       false,
       {"model", "n", "seed", "attach", "p", "k", "beta", "output"}},
      {"serve", CmdServe, true, {"input", "h-max", "print-limit"}},
  };
  return kCommands;
}

/// The values each enumerated flag accepts (CoreOptions and CmdHClub map
/// exactly these).
const std::map<std::string, std::vector<std::string>>& EnumFlagValues() {
  static const std::map<std::string, std::vector<std::string>> kValues = {
      {"algo", {"auto", "bz", "lb", "lbub"}},
      {"ordering", {"none", "auto"}},
      {"solver", {"bb", "it"}},
  };
  return kValues;
}

/// Every flag read through Flags::GetInt, with the least value a command
/// can run with: 1 for the distance thresholds and --attach, 0 for counts;
/// any --seed.
const std::map<std::string, int>& IntFlagMinimums() {
  static const std::map<std::string, int> kMinimums = {
      {"h", 1},         {"h-max", 1},       {"partition", 0},
      {"limit", 0},     {"max-nodes", 0},   {"print-limit", 0},
      {"n", 0},         {"attach", 1},      {"k", 0},
      {"seed", INT_MIN},
  };
  return kMinimums;
}

/// Every flag read through Flags::GetProbability: a number in [0, 1].
const std::vector<std::string>& ProbabilityFlags() {
  static const std::vector<std::string> kFlags = {"p", "beta"};
  return kFlags;
}

/// An error message for the first flag value no command can run with, or
/// "" when every value is usable.
std::string BadFlagValue(const Flags& flags) {
  for (const auto& [flag, allowed] : EnumFlagValues()) {
    if (!flags.Has(flag)) continue;
    const std::string value = flags.Get(flag);
    if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
      continue;
    }
    std::string expected;
    for (const std::string& a : allowed) {
      expected += (expected.empty() ? "" : "|") + a;
    }
    return "unknown value '" + value + "' for --" + flag + " (expected " +
           expected + ")";
  }
  for (const auto& [flag, minimum] : IntFlagMinimums()) {
    if (!flags.Has(flag)) continue;
    const std::string value = flags.Get(flag);
    const std::optional<int> parsed = ParseDecimal<int>(value);
    if (!parsed) {
      return "--" + flag + " must be an integer, got '" + value + "'";
    }
    if (*parsed < minimum) {
      return "--" + flag + " must be >= " + std::to_string(minimum);
    }
  }
  for (const std::string& flag : ProbabilityFlags()) {
    if (!flags.Has(flag)) continue;
    const std::string value = flags.Get(flag);
    const std::optional<double> parsed = ParseDecimal<double>(value);
    if (!parsed || !(*parsed >= 0.0 && *parsed <= 1.0)) {
      return "--" + flag + " must be a number in [0, 1], got '" + value + "'";
    }
  }
  return "";
}

void Usage() {
  std::fprintf(stderr,
               "usage: hcore_cli <command> [--flags]\n"
               "commands: decompose hierarchy stats spectrum hclub hclique\n"
               "          coloring community densest generate serve\n"
               "see the header comment of tools/hcore_cli.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  for (const Command& command : Commands()) {
    if (cmd != command.name) continue;
    const Flags flags = ParseFlags(argc, argv);
    for (const auto& [flag, value] : flags.values) {
      if (!command.Accepts(flag)) return Fail("unknown flag --" + flag);
    }
    const std::string bad_value = BadFlagValue(flags);
    if (!bad_value.empty()) return Fail(bad_value);
    return command.run(flags);
  }
  Usage();
  return 1;
}
