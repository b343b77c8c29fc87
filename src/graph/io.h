// Edge-list I/O in the SNAP text format.
//
// Input files contain one `u v` pair per line; lines starting with '#' or
// '%' are comments. Columns after the pair (e.g. a weight) are ignored, but
// each id must be a whole token: `1 2x` or `1 2.5` is a parse error. Vertex
// ids are arbitrary integers in [0, 2^64) and are relabeled to a dense range
// in first-appearance order, source before target within a line (stable
// across runs); more than 2^32 - 1 distinct ids is an error.

#ifndef HCORE_GRAPH_IO_H_
#define HCORE_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace hcore::io {

/// Parses an edge list from a string buffer (SNAP format).
/// lint:allow(test-only-api): the fuzz leg and the boundary tests feed it
/// text directly, without a file on disk.
Result<Graph> ParseEdgeList(const std::string& text);

/// Reads an edge list file (SNAP format).
Result<Graph> ReadEdgeList(const std::string& path);

/// Writes `g` as an edge list (one `u v` per line, u < v) with a comment
/// header. Returns an error if the file cannot be opened.
Status WriteEdgeList(const Graph& g, const std::string& path);

/// Writes `g` in Graphviz DOT format. If `vertex_label` is non-null (one
/// entry per vertex, e.g. (k,h)-core indexes), each vertex is annotated
/// with "id\nlabel" — the visualization use-case of core decompositions
/// cited in the paper's §2.
Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<uint32_t>* vertex_label = nullptr);

}  // namespace hcore::io

#endif  // HCORE_GRAPH_IO_H_
