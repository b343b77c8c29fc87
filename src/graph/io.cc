#include "graph/io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace hcore::io {
namespace {

// Parses one unsigned integer starting at text[*pos]; advances *pos.
// Returns false if no digits are present, the value overflows uint64_t, or
// the digits run into anything but whitespace or the end of the text.
bool ParseUint(const std::string& text, size_t* pos, uint64_t* out) {
  size_t i = *pos;
  if (i >= text.size() || !std::isdigit(static_cast<unsigned char>(text[i]))) {
    return false;
  }
  uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    const uint64_t digit = static_cast<uint64_t>(text[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
    ++i;
  }
  if (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) {
    return false;
  }
  *pos = i;
  *out = value;
  return true;
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  GraphBuilder builder;
  std::unordered_map<uint64_t, VertexId> relabel;
  // Dense ids in first-appearance order. False once the ids run out: a new
  // raw id would get kInvalidVertex, the (2^32)-th distinct id.
  auto intern = [&](uint64_t raw, VertexId* id) {
    const auto [it, inserted] =
        relabel.try_emplace(raw, static_cast<VertexId>(relabel.size()));
    if (inserted && it->second == kInvalidVertex) return false;
    *id = it->second;
    return true;
  };

  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    ++line_no;
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    size_t i = pos;
    while (i < eol && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i < eol && text[i] != '#' && text[i] != '%') {
      uint64_t u = 0, v = 0;
      if (!ParseUint(text, &i, &u)) {
        return Status::InvalidArgument("edge list: bad source id at line " +
                                       std::to_string(line_no));
      }
      while (i < eol && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
      if (!ParseUint(text, &i, &v)) {
        return Status::InvalidArgument("edge list: bad target id at line " +
                                       std::to_string(line_no));
      }
      // `||` interns the source before the target; as two arguments of one
      // call their order would be unspecified.
      VertexId a = 0, b = 0;
      if (!intern(u, &a) || !intern(v, &b)) {
        return Status::InvalidArgument(
            "edge list: more than 2^32 - 1 distinct vertex ids at line " +
            std::to_string(line_no));
      }
      builder.AddEdge(a, b);
    }
    pos = eol + 1;
  }
  builder.EnsureVertices(static_cast<VertexId>(relabel.size()));
  return builder.Build();
}

Result<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseEdgeList(buffer.str());
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open file for writing: " + path);
  out << "# hcore edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (const auto& [u, v] : g.Edges()) {
    out << u << ' ' << v << '\n';
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<uint32_t>* vertex_label) {
  if (vertex_label != nullptr && vertex_label->size() != g.num_vertices()) {
    return Status::InvalidArgument("vertex_label size mismatch");
  }
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open file for writing: " + path);
  out << "graph hcore {\n  node [shape=circle];\n";
  if (vertex_label != nullptr) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      out << "  " << v << " [label=\"" << v << "\\n" << (*vertex_label)[v]
          << "\"];\n";
    }
  }
  for (const auto& [u, v] : g.Edges()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace hcore::io
