// Shared helpers for the hgr test suite.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/rng.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"

namespace hgr::testing {

/// Unit-weight hypergraph over n vertices with the given nets (cost 1).
inline Hypergraph make_hypergraph(
    Index n, std::initializer_list<std::initializer_list<Index>> nets) {
  HypergraphBuilder b(n);
  for (const auto& net : nets) b.add_net(net, 1);
  return b.finalize();
}

/// Unit-weight graph over n vertices with the given edges (weight 1).
inline Graph make_graph(
    Index n, std::initializer_list<std::pair<Index, Index>> edges) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.add_edge(u, v, 1);
  return b.finalize();
}

/// Random hypergraph: `nets` nets with 2..max_pins pins over n vertices,
/// random costs in [1, max_cost], random weights/sizes in [1, 4].
inline Hypergraph random_hypergraph(Index n, Index nets, Index max_pins,
                                    Weight max_cost, std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b(n);
  for (Index i = 0; i < nets; ++i) {
    const auto pins =
        static_cast<Index>(2 + rng.below(static_cast<std::uint64_t>(
                                   std::max<Index>(1, max_pins - 1))));
    std::vector<Index> net;
    for (Index p = 0; p < pins; ++p)
      net.push_back(static_cast<Index>(rng.below(
          static_cast<std::uint64_t>(n))));
    b.add_net(net, 1 + static_cast<Weight>(rng.below(
                       static_cast<std::uint64_t>(max_cost))));
  }
  for (Index v = 0; v < n; ++v) {
    b.set_vertex_weight(v, 1 + static_cast<Weight>(rng.below(4)));
    b.set_vertex_size(v, 1 + static_cast<Weight>(rng.below(4)));
  }
  return b.finalize();
}

/// Random matching over n vertices: a shuffled half of them paired up
/// consecutively, the rest unmatched (match[v] == v).
inline IdVector<VertexId, VertexId> random_pair_matching(Index n,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : match.ids()) match[v] = v;
  std::vector<Index> order;
  for (Index v = 0; v < n; ++v) order.push_back(v);
  rng.shuffle(order);
  for (std::size_t i = 0; i + 1 < order.size() / 2; i += 2) {
    const VertexId a{order[i]};
    const VertexId b{order[i + 1]};
    match[a] = b;
    match[b] = a;
  }
  return match;
}

/// Random nets over n vertices, then the cases contraction dedups under
/// `match`: exact copies of earlier nets, near-copies one pin off, nets
/// that only become equal once matched pins merge, and nets over a single
/// matched pair (they collapse below 2 pins). Costs are 1..3.
inline Hypergraph planted_duplicates_hypergraph(
    Index n, Index nets, const IdVector<VertexId, VertexId>& match,
    std::uint64_t seed) {
  Rng rng(seed);
  const auto vertex = [&] {
    return static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
  };
  const auto cost = [&] { return 1 + static_cast<Weight>(rng.below(3)); };
  std::vector<std::vector<Index>> added;
  HypergraphBuilder b(n);
  const auto add = [&](std::vector<Index> pins) {
    b.add_net(pins, cost());
    added.push_back(std::move(pins));
  };
  for (Index i = 0; i < nets; ++i) {
    const std::uint64_t kind = added.empty() ? 0 : rng.below(5);
    std::vector<Index> pins;
    if (kind == 0) {  // fresh random net
      const auto size = static_cast<Index>(2 + rng.below(5));
      for (Index p = 0; p < size; ++p) pins.push_back(vertex());
    } else {
      pins = added[static_cast<std::size_t>(rng.below(added.size()))];
      const std::size_t at = rng.below(pins.size());
      if (kind == 2) {  // near-copy: one pin replaced
        pins[at] = vertex();
      } else if (kind == 3) {  // equal once contracted: pin -> its partner
        pins[at] = match[VertexId{pins[at]}].v;
      } else if (kind == 4) {  // a single matched pair: collapses to 1 pin
        const VertexId v{pins[at]};
        pins = {v.v, match[v].v};
      }  // kind == 1: exact copy
    }
    add(std::move(pins));
  }
  return b.finalize();
}

/// Random connected graph: spanning chain plus extra random edges.
inline Graph random_graph(Index n, Index extra_edges, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (Index v = 1; v < n; ++v)
    b.add_edge(v - 1, v, 1 + static_cast<Weight>(rng.below(3)));
  for (Index e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
    if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.below(3)));
  }
  for (Index v = 0; v < n; ++v) {
    b.set_vertex_weight(v, 1 + static_cast<Weight>(rng.below(3)));
    b.set_vertex_size(v, 1 + static_cast<Weight>(rng.below(3)));
  }
  return b.finalize();
}

/// Random partition into k parts.
inline Partition random_partition(Index n, Index k, std::uint64_t seed) {
  Rng rng(seed);
  Partition p(k, n);
  for (const VertexId v : p.vertices())
    p[v] = PartId{
        static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
  return p;
}

/// Brute-force connectivity-1 cut for cross-checking the fast path.
inline Weight brute_force_connectivity_cut(const Hypergraph& h,
                                           const Partition& p) {
  Weight total = 0;
  for (const NetId net : h.nets()) {
    std::vector<bool> seen(static_cast<std::size_t>(p.k), false);
    Index lambda = 0;
    for (const VertexId v : h.pins(net)) {
      if (!seen[static_cast<std::size_t>(p[v].v)]) {
        seen[static_cast<std::size_t>(p[v].v)] = true;
        ++lambda;
      }
    }
    if (lambda > 1) total += h.net_cost(net) * (lambda - 1);
  }
  return total;
}

/// The paper's Figure 1 (left): epoch j-1 hypergraph. Nine unit vertices
/// (ids 0..8 standing for 1..9), three parts. Nets (cost 1 each):
/// {1,2,3}, {3,4,6}, {5,6,7}, {7,8,9}, {2,3,a?}... Figure 1 is stylized; we
/// encode the epoch-j instance exactly as the worked example in Section 3
/// needs it; see paper_example_test.cpp.
struct PaperFigure1 {
  // Epoch j: seven surviving vertices 1..7 plus new a, b.
  // Index mapping: 1..7 -> 0..6, a -> 7, b -> 8.
  static constexpr Index v1 = 0, v2 = 1, v3 = 2, v4 = 3, v5 = 4, v6 = 5,
                         v7 = 6, va = 7, vb = 8;
};

}  // namespace hgr::testing
