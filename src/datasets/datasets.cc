#include "datasets/datasets.h"

#include <algorithm>
#include <cmath>

#include "graph/generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcore {
namespace {

VertexId Scaled(VertexId n, double scale) {
  return std::max<VertexId>(8, static_cast<VertexId>(std::lround(n * scale)));
}

uint64_t ScaledEdges(uint64_t m, double scale) {
  return std::max<uint64_t>(8, static_cast<uint64_t>(std::llround(m * scale)));
}

}  // namespace

std::vector<std::string> DatasetNames() {
  return {"coli", "cele", "jazz", "FBco", "caHe", "caAs", "doub",
          "amzn", "rnPA", "rnTX", "sytb", "hyves", "lj"};
}

Dataset LoadDataset(const std::string& name, double scale) {
  // Validate once at the entry point, with a message a bench/CLI user can
  // act on (the per-family Scaled() helpers trust it from here). Both ends
  // matter: 0 or a negative scale would round every family to the clamp
  // floor, and > 1 silently extrapolates a graph the paper never measured.
  HCORE_CHECK(scale > 0.0 && scale <= 1.0 &&
              "LoadDataset: scale must be in (0, 1]");
  Dataset out;
  out.name = name;
  // Every dataset has its own fixed seed so graphs are independent yet
  // reproducible.
  if (name == "coli") {  // biological, n=328 m=456 in the paper
    Rng rng(101);
    out.family = "biological";
    out.graph = gen::Connectify(
        gen::ChungLuPowerLaw(Scaled(328, scale), ScaledEdges(456, scale), 2.3,
                             &rng),
        &rng);
  } else if (name == "cele") {  // metabolic, n=346 m=1493
    Rng rng(102);
    out.family = "biological";
    out.graph = gen::Connectify(
        gen::ChungLuPowerLaw(Scaled(346, scale), ScaledEdges(1493, scale), 2.2,
                             &rng),
        &rng);
  } else if (name == "jazz") {  // dense collaboration (bands), n=198 m=2742
    Rng rng(103);
    out.family = "collaboration";
    VertexId n = Scaled(198, scale);
    out.graph = gen::CliqueOverlay(n, n / 2, 3, std::max<uint32_t>(6, n / 7),
                                   1.8, &rng);
  } else if (name == "FBco") {  // dense social, n=4039 m=88234
    Rng rng(104);
    out.family = "social";
    VertexId n = Scaled(4039, scale);
    // Ego-network communities: planted partition tuned for avg degree ~43,
    // plus a sprinkle of dense friend groups.
    VertexId block = std::max<VertexId>(8, n / 15);
    GraphBuilder b(n);
    Graph pp = gen::PlantedPartition(15, block, 35.0 / block, 0.002, &rng);
    for (const auto& [u, v] : pp.Edges()) b.AddEdge(u, v);
    Graph cliques = gen::CliqueOverlay(n, n / 40, 4,
                                       std::max<uint32_t>(8, n / 60), 2.0,
                                       &rng);
    for (const auto& [u, v] : cliques.Edges()) b.AddEdge(u, v);
    // Ego-center hubs: the real graph is a union of ego networks whose
    // centers have degree ~1000 (max degree 1045 at n = 4039).
    for (int hub = 0; hub < 3; ++hub) {
      VertexId center = rng.NextIndex(n);
      for (VertexId i = 0; i < n / 4; ++i) {
        VertexId v = rng.NextIndex(n);
        if (v != center) b.AddEdge(center, v);
      }
    }
    out.graph = gen::Connectify(b.Build(), &rng);
  } else if (name == "caHe") {  // co-authorship cliques, n=11204
    Rng rng(105);
    out.family = "collaboration";
    VertexId n = Scaled(11204, scale);
    // ca-HepPh's 238-core comes from one huge collaboration; scale the max
    // clique with n (n/47 ~ 239 at full size).
    out.graph = gen::CliqueOverlay(n, n / 2, 2, std::max<uint32_t>(8, n / 47),
                                   2.0, &rng);
  } else if (name == "caAs") {  // co-authorship cliques, n=17903
    Rng rng(106);
    out.family = "collaboration";
    VertexId n = Scaled(17903, scale);
    out.graph = gen::CliqueOverlay(n, (n * 7) / 10, 2,
                                   std::max<uint32_t>(8, n / 316), 2.1, &rng);
  } else if (name == "doub") {  // sparse social (douban), stand-in n=30k
    Rng rng(107);
    out.family = "social";
    VertexId n = Scaled(30000, scale);
    out.graph = gen::ChungLuPowerLaw(n, ScaledEdges(63000, scale), 2.6, &rng);
  } else if (name == "amzn") {  // co-purchase, high diameter, stand-in n=30k
    Rng rng(108);
    out.family = "co-purchase";
    VertexId n = Scaled(30000, scale);
    // Lattice-community hybrid: local Watts-Strogatz ring with low rewiring
    // gives high clustering and large diameter like com-amazon.
    out.graph = gen::WattsStrogatz(n, 2, 0.05, &rng);
  } else if (name == "rnPA") {  // road network, stand-in n=~50k
    Rng rng(109);
    out.family = "road";
    VertexId side = static_cast<VertexId>(
        std::lround(std::sqrt(static_cast<double>(Scaled(50000, scale)))));
    out.graph = gen::RoadLattice(side, side, 0.72, &rng);
  } else if (name == "rnTX") {  // road network, stand-in n=~57k
    Rng rng(110);
    out.family = "road";
    VertexId side = static_cast<VertexId>(
        std::lround(std::sqrt(static_cast<double>(Scaled(57000, scale)))));
    out.graph = gen::RoadLattice(side, side, 0.70, &rng);
  } else if (name == "sytb") {  // star-heavy social (soc-youtube), n=40k
    Rng rng(111);
    out.family = "social";
    VertexId n = Scaled(40000, scale);
    out.graph = gen::StarHeavySocial(n, ScaledEdges(120000, scale), 4,
                                     0.02, &rng);
  } else if (name == "hyves") {  // star-heavy social, stand-in n=45k
    Rng rng(112);
    out.family = "social";
    VertexId n = Scaled(45000, scale);
    out.graph = gen::StarHeavySocial(n, ScaledEdges(110000, scale), 5,
                                     0.025, &rng);
  } else if (name == "lj") {  // large social (livejournal), stand-in n=60k
    Rng rng(113);
    out.family = "social";
    VertexId n = Scaled(60000, scale);
    out.graph = gen::BarabasiAlbert(n, 7, &rng);
  } else {
    HCORE_CHECK(false && "unknown dataset name");
  }
  return out;
}

}  // namespace hcore
