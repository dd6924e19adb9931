#include "hypergraph/convert.hpp"

#include <vector>

#include "common/assert.hpp"
#include "hypergraph/builder.hpp"

namespace hgr {

Hypergraph graph_to_hypergraph(const Graph& g) {
  // Writes the CSR directly, in the order HypergraphBuilder would emit it:
  // net {v, u} for each edge with u > v, in vertex then neighbour order.
  // Every net has exactly two distinct pins, so nothing is sorted, deduped
  // or dropped, and exact reserves make the pass allocate O(1) times.
  const auto m = static_cast<std::size_t>(g.num_edges());
  std::vector<Index> offsets;
  std::vector<VertexId> pins;
  std::vector<Weight> costs;
  offsets.reserve(m + 1);
  pins.reserve(2 * m);
  costs.reserve(m);
  offsets.push_back(0);
  for (Index v = 0; v < g.num_vertices(); ++v) {
    HGR_ASSERT(g.vertex_weight(v) >= 0 && g.vertex_size(v) >= 0);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= v) continue;  // each undirected edge once
      HGR_ASSERT(ws[i] >= 0);
      pins.push_back(VertexId{v});
      pins.push_back(VertexId{nbrs[i]});
      costs.push_back(ws[i]);
      offsets.push_back(static_cast<Index>(pins.size()));
    }
  }
  const auto vw = g.vertex_weights();
  const auto vs = g.vertex_sizes();
  return Hypergraph(std::move(offsets), std::move(pins),
                    std::vector<Weight>(vw.begin(), vw.end()),
                    std::vector<Weight>(vs.begin(), vs.end()),
                    std::move(costs));
}

Hypergraph graph_to_column_net_hypergraph(const Graph& g) {
  HypergraphBuilder b(g.num_vertices());
  std::vector<Index> pins;
  for (Index v = 0; v < g.num_vertices(); ++v) {
    b.set_vertex_weight(v, g.vertex_weight(v));
    b.set_vertex_size(v, g.vertex_size(v));
    const auto nbrs = g.neighbors(v);
    pins.assign(nbrs.begin(), nbrs.end());
    pins.push_back(v);
    b.add_net(pins, 1);
  }
  return b.finalize();
}

}  // namespace hgr
