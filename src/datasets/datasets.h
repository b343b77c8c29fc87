// Named synthetic stand-ins for the paper's 13 evaluation graphs (Table 1).
//
// The originals are public SNAP/KONECT/networkrepository downloads that are
// unavailable in this offline environment, so every benchmark loads a
// deterministic synthetic graph from the same structural class (degree skew,
// clustering, diameter). LoadDataset (datasets.cc) holds the per-dataset
// mapping: each branch names the original graph, its size and the class it
// stands in for. Relative algorithmic behaviour is what carries over: the
// algorithms' costs follow h-neighborhood sizes and core structure, which
// depend on that class, not on the exact graph. Small graphs are generated
// at the paper's scale; large ones are scaled down to laptop-friendly sizes
// (their stand-in |V| is listed below).

#ifndef HCORE_DATASETS_DATASETS_H_
#define HCORE_DATASETS_DATASETS_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace hcore {

/// A named benchmark graph.
struct Dataset {
  std::string name;         ///< paper's short name (e.g. "caAs")
  std::string family;       ///< structural class (e.g. "collaboration")
  Graph graph;
};

/// Names of all stand-in datasets, in the paper's Table-1 order:
/// coli, cele, jazz, FBco, caHe, caAs, doub, amzn, rnPA, rnTX, sytb,
/// hyves, lj.
std::vector<std::string> DatasetNames();

/// Loads a stand-in dataset by name. `scale` in (0, 1] shrinks the vertex
/// count proportionally (1.0 = the stand-in's full size). Generation is
/// deterministic: the same name and scale always produce the same graph.
/// Aborts on unknown names.
Dataset LoadDataset(const std::string& name, double scale = 1.0);

}  // namespace hcore

#endif  // HCORE_DATASETS_DATASETS_H_
