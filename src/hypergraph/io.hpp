// Text file I/O for hypergraphs and graphs.
//
// Hypergraphs use the hMETIS/PaToH-style format:
//   line 1: <num_nets> <num_vertices> [fmt]
//     fmt: 0 (default, no weights), 1 = net costs, 10 = vertex weights,
//          11 = both. hgr extends with an optional third weight column for
//          vertex sizes when fmt has a hundreds digit of 1 (e.g. 111).
//   next num_nets lines: [cost] pin pin pin...   (pins are 1-based)
//   next num_vertices lines (if vertex weights): weight [size]
//
// Graphs use the METIS format:
//   line 1: <num_vertices> <num_edges> [fmt]
//   next num_vertices lines: [weight] nbr [ewgt] nbr [ewgt] ...  (1-based)
//
// These readers let users feed the real Table-1 matrices to the harness if
// they have them; the repo's benchmarks default to synthetic analogs.
#pragma once

#include <iosfwd>
#include <string>

#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

Hypergraph read_hmetis(std::istream& in);
Hypergraph read_hmetis_file(const std::string& path);
void write_hmetis(const Hypergraph& h, std::ostream& out);
void write_hmetis_file(const Hypergraph& h, const std::string& path);

Graph read_metis_graph(std::istream& in);
Graph read_metis_graph_file(const std::string& path);
void write_metis_graph(const Graph& g, std::ostream& out);

/// MatrixMarket "coordinate" reader (the SuiteSparse format of the paper's
/// Table 1 matrices: xyce680s, cage14, ...). The sparsity pattern becomes
/// an undirected graph: entry (i, j), i != j, is the edge {i, j};
/// non-symmetric inputs are symmetrized (A + A^T pattern); values are
/// ignored (unit edge weights); the matrix must be square.
Graph read_matrix_market(std::istream& in);
Graph read_matrix_market_file(const std::string& path);

}  // namespace hgr
