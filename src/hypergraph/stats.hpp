// Structural statistics: the numbers reported in the paper's Table 1
// (|V|, |E|, min/max/avg vertex degree) plus net-size statistics.
#pragma once

#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

struct DegreeStats {
  Index min = 0;
  Index max = 0;
  double avg = 0.0;
};

DegreeStats graph_degree_stats(const Graph& g);
DegreeStats hypergraph_vertex_degree_stats(const Hypergraph& h);
DegreeStats hypergraph_net_size_stats(const Hypergraph& h);

/// Whether the graph is connected (BFS from vertex 0; empty graph counts
/// as connected).
bool is_connected(const Graph& g);

}  // namespace hgr
