// Conversions between graph and hypergraph representations.
//
// The paper's test problems are structurally symmetric, "can be accurately
// represented as both graphs and hypergraphs": as a hypergraph, each
// undirected edge becomes a 2-pin net whose cost is the edge weight; then
// connectivity-1 cut == edge cut, so the two partitioners optimize the same
// number on these inputs and their results are directly comparable.
//
// We also provide the general sparse-matrix models (column-net / row-net)
// used for non-symmetric systems, and the clique expansion going the other
// way (the standard lossy graph approximation of a hypergraph).
#pragma once

#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

/// One 2-pin net per undirected edge; vertex weights/sizes copied.
Hypergraph graph_to_hypergraph(const Graph& g);

/// Star expansion of a symmetric pattern given as a graph: one net per
/// vertex containing the vertex and its neighbors (the column-net model of
/// the corresponding matrix with a full diagonal). Net cost = 1.
Hypergraph graph_to_column_net_hypergraph(const Graph& g);

}  // namespace hgr
