#include "hypergraph/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "hypergraph/builder.hpp"

namespace hgr {

namespace {

[[noreturn]] void parse_error(const std::string& what) {
  throw std::runtime_error("hgr i/o parse error: " + what);
}

/// Next non-comment, non-blank line ('%' starts a comment, as in METIS).
bool next_data_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    std::size_t i = 0;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size() || line[i] == '%') continue;
    return true;
  }
  return false;
}

/// A vertex count read from a file header, as an Index. Counts that do not
/// fit would wrap and let out-of-range ids through to the builders.
Index vertex_count(long long n) {
  if (n < 0) parse_error("negative vertex count " + std::to_string(n));
  if (n > std::numeric_limits<Index>::max())
    parse_error("vertex count " + std::to_string(n) + " exceeds " +
                std::to_string(std::numeric_limits<Index>::max()));
  return static_cast<Index>(n);
}

}  // namespace

Hypergraph read_hmetis(std::istream& in) {
  std::string line;
  if (!next_data_line(in, line)) parse_error("empty hypergraph file");
  std::istringstream header(line);
  long long num_nets = 0, num_vertices = 0;
  int fmt = 0;
  if (!(header >> num_nets >> num_vertices)) parse_error("bad header");
  header >> fmt;
  const bool has_net_costs = (fmt % 10) == 1;
  const bool has_vweights = (fmt / 10 % 10) == 1;
  const bool has_vsizes = (fmt / 100 % 10) == 1;
  if (num_nets < 0 || num_vertices < 0) parse_error("negative counts");

  HypergraphBuilder b(vertex_count(num_vertices));
  b.keep_single_pin_nets(true);
  std::vector<Index> pins;
  for (long long n = 0; n < num_nets; ++n) {
    if (!next_data_line(in, line)) parse_error("missing net line");
    std::istringstream ls(line);
    Weight cost = 1;
    if (has_net_costs && !(ls >> cost)) parse_error("missing net cost");
    if (cost < 0)
      parse_error("negative net cost " + std::to_string(cost) + " on net " +
                  std::to_string(n + 1));
    pins.clear();
    long long pin;
    while (ls >> pin) {
      if (pin < 1 || pin > num_vertices)
        parse_error("pin " + std::to_string(pin) + " out of range [1, " +
                    std::to_string(num_vertices) + "] on net " +
                    std::to_string(n + 1));
      pins.push_back(static_cast<Index>(pin - 1));
    }
    if (!ls.eof()) parse_error("non-numeric pin on net " + std::to_string(n + 1));
    if (pins.empty()) parse_error("empty net");
    b.add_net(pins, cost);
  }
  if (has_vweights) {
    for (long long v = 0; v < num_vertices; ++v) {
      if (!next_data_line(in, line)) parse_error("missing vertex weight line");
      std::istringstream ls(line);
      Weight w = 1, s = 1;
      if (!(ls >> w)) parse_error("bad vertex weight");
      if (has_vsizes && !(ls >> s)) parse_error("missing vertex size");
      if (w < 0)
        parse_error("negative weight " + std::to_string(w) + " for vertex " +
                    std::to_string(v + 1));
      if (s < 0)
        parse_error("negative size " + std::to_string(s) + " for vertex " +
                    std::to_string(v + 1));
      b.set_vertex_weight(static_cast<Index>(v), w);
      b.set_vertex_size(static_cast<Index>(v), has_vsizes ? s : w);
    }
  }
  return b.finalize();
}

Hypergraph read_hmetis_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) parse_error("cannot open " + path);
  return read_hmetis(in);
}

void write_hmetis(const Hypergraph& h, std::ostream& out) {
  out << h.num_nets() << ' ' << h.num_vertices() << " 111\n";
  for (const NetId n : h.nets()) {
    out << h.net_cost(n);
    for (const VertexId v : h.pins(n)) out << ' ' << (v.v + 1);
    out << '\n';
  }
  for (const VertexId v : h.vertices())
    out << h.vertex_weight(v) << ' ' << h.vertex_size(v) << '\n';
}

void write_hmetis_file(const Hypergraph& h, const std::string& path) {
  std::ofstream out(path);
  if (!out) parse_error("cannot open " + path + " for writing");
  write_hmetis(h, out);
}

Graph read_metis_graph(std::istream& in) {
  std::string line;
  if (!next_data_line(in, line)) parse_error("empty graph file");
  std::istringstream header(line);
  long long num_vertices = 0, num_edges = 0;
  std::string fmt = "0";
  if (!(header >> num_vertices >> num_edges)) parse_error("bad graph header");
  header >> fmt;
  const bool has_ewgt = fmt.size() >= 1 && fmt[fmt.size() - 1] == '1';
  const bool has_vwgt = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';

  GraphBuilder b(vertex_count(num_vertices));
  for (long long v = 0; v < num_vertices; ++v) {
    if (!next_data_line(in, line)) parse_error("missing adjacency line");
    std::istringstream ls(line);
    if (has_vwgt) {
      Weight w;
      if (!(ls >> w)) parse_error("missing vertex weight");
      if (w < 0)
        parse_error("negative weight " + std::to_string(w) + " for vertex " +
                    std::to_string(v + 1));
      b.set_vertex_weight(static_cast<Index>(v), w);
      b.set_vertex_size(static_cast<Index>(v), w);
    }
    long long nbr;
    while (ls >> nbr) {
      if (nbr < 1 || nbr > num_vertices) parse_error("neighbor out of range");
      Weight w = 1;
      if (has_ewgt && !(ls >> w)) parse_error("missing edge weight");
      if (w < 0)
        parse_error("negative weight " + std::to_string(w) + " on edge (" +
                    std::to_string(v + 1) + ", " + std::to_string(nbr) + ")");
      if (nbr - 1 > v) b.add_edge(static_cast<Index>(v),
                                  static_cast<Index>(nbr - 1), w);
    }
  }
  Graph g = b.finalize();
  if (g.num_edges() != static_cast<Index>(num_edges)) {
    // Tolerate headers that count directed edges.
    if (g.num_edges() * 2 != static_cast<Index>(num_edges))
      parse_error("edge count mismatch");
  }
  return g;
}

Graph read_metis_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) parse_error("cannot open " + path);
  return read_metis_graph(in);
}

void write_metis_graph(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << " 11\n";
  for (Index v = 0; v < g.num_vertices(); ++v) {
    out << g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      out << ' ' << (nbrs[i] + 1) << ' ' << ws[i];
    out << '\n';
  }
}

Graph read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) parse_error("empty MatrixMarket file");
  std::istringstream banner(line);
  std::string mm, object, format, field, symmetry;
  banner >> mm >> object >> format >> field >> symmetry;
  if (mm != "%%MatrixMarket") parse_error("missing MatrixMarket banner");
  if (object != "matrix" || format != "coordinate")
    parse_error("only 'matrix coordinate' MatrixMarket files are supported");
  const bool has_value = field != "pattern";

  if (!next_data_line(in, line)) parse_error("missing MatrixMarket sizes");
  std::istringstream sizes(line);
  long long rows = 0, cols = 0, entries = 0;
  if (!(sizes >> rows >> cols >> entries))
    parse_error("bad MatrixMarket size line");
  if (rows != cols) parse_error("matrix must be square");
  if (rows <= 0) parse_error("empty matrix");

  GraphBuilder b(vertex_count(rows));
  for (long long e = 0; e < entries; ++e) {
    if (!next_data_line(in, line)) parse_error("missing MatrixMarket entry");
    std::istringstream entry(line);
    long long i = 0, j = 0;
    if (!(entry >> i >> j)) parse_error("bad MatrixMarket entry");
    if (has_value) {
      double value;
      entry >> value;  // pattern-only use; value ignored
    }
    if (i < 1 || i > rows || j < 1 || j > cols)
      parse_error("MatrixMarket index out of range");
    if (i != j)
      b.add_edge(static_cast<Index>(i - 1), static_cast<Index>(j - 1), 1);
  }
  // GraphBuilder symmetrizes and merges duplicates, which also handles the
  // 'symmetric'/'general' distinction: both collapse to the A + A^T
  // pattern with unit weights... except duplicate (i,j)+(j,i) entries in a
  // general file would sum to weight 2; rebuild with weight-1 edges.
  Graph merged = b.finalize();
  GraphBuilder clean(merged.num_vertices());
  for (Index v = 0; v < merged.num_vertices(); ++v)
    for (const Index u : merged.neighbors(v))
      if (u > v) clean.add_edge(v, u, 1);
  return clean.finalize();
}

Graph read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) parse_error("cannot open " + path);
  return read_matrix_market(in);
}

}  // namespace hgr
