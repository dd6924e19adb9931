#include "hypergraph/convert.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "hypergraph/builder.hpp"
#include "metrics/cut.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_graph;
using testing::random_graph;
using testing::random_partition;

TEST(Convert, GraphToHypergraphStructure) {
  const Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const Hypergraph h = graph_to_hypergraph(g);
  EXPECT_EQ(h.num_vertices(), 4);
  EXPECT_EQ(h.num_nets(), 3);
  for (const NetId net : h.nets()) EXPECT_EQ(h.net_size(net), 2);
}

TEST(Convert, GraphToHypergraphPreservesAttributes) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 7);
  b.set_vertex_weight(2, 9);
  b.set_vertex_size(2, 4);
  const Graph g = b.finalize();
  const Hypergraph h = graph_to_hypergraph(g);
  EXPECT_EQ(h.net_cost(NetId{0}), 7);
  EXPECT_EQ(h.vertex_weight(VertexId{2}), 9);
  EXPECT_EQ(h.vertex_size(VertexId{2}), 4);
}

TEST(Convert, GraphToHypergraphMatchesBuilderReference) {
  // The reference is the builder path the direct CSR writer replaced: one
  // add_net({v, u}, w) per edge with u > v, in vertex then neighbour order.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const Index n = 40 + static_cast<Index>(rng.below(40));
    const Index isolated = 5;  // vertices [n - isolated, n) have no edges
    GraphBuilder gb(n);
    for (Index e = 0; e < 3 * n; ++e) {
      const auto u = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(n - isolated)));
      const auto v = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(n - isolated)));
      gb.add_edge(u, v, static_cast<Weight>(rng.below(3)));  // 0 included
    }
    for (Index v = 0; v < n; ++v) {
      gb.set_vertex_weight(v, static_cast<Weight>(rng.below(5)));
      gb.set_vertex_size(v, static_cast<Weight>(rng.below(5)));
    }
    const Graph g = gb.finalize();

    HypergraphBuilder hb(n);
    for (Index v = 0; v < n; ++v) {
      hb.set_vertex_weight(v, g.vertex_weight(v));
      hb.set_vertex_size(v, g.vertex_size(v));
      const auto nbrs = g.neighbors(v);
      const auto ws = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        if (nbrs[i] > v) hb.add_net({v, nbrs[i]}, ws[i]);
    }
    const Hypergraph want = hb.finalize();
    const Hypergraph got = graph_to_hypergraph(g);

    ASSERT_EQ(got.num_vertices(), want.num_vertices());
    ASSERT_EQ(got.num_nets(), want.num_nets());
    ASSERT_EQ(got.num_pins(), want.num_pins());
    EXPECT_EQ(got.has_fixed(), want.has_fixed());
    for (const NetId net : want.nets()) {
      const auto a = got.pins(net);
      const auto b = want.pins(net);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "seed " << seed << " net " << net.v;
      EXPECT_EQ(got.net_cost(net), want.net_cost(net));
    }
    for (const VertexId v : want.vertices()) {
      EXPECT_EQ(got.vertex_weight(v), want.vertex_weight(v));
      EXPECT_EQ(got.vertex_size(v), want.vertex_size(v));
      EXPECT_EQ(got.vertex_degree(v), want.vertex_degree(v));
    }
    EXPECT_EQ(got.total_vertex_weight(), want.total_vertex_weight());
    got.validate();
  }
}

TEST(Convert, EdgeCutEqualsConnectivityCutOn2PinNets) {
  // On symmetric problems the two objectives coincide — the property that
  // makes the paper's graph/hypergraph comparison apples-to-apples.
  const Graph g = random_graph(60, 120, 7);
  const Hypergraph h = graph_to_hypergraph(g);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Partition p = random_partition(60, 4, seed);
    EXPECT_EQ(edge_cut(g, p), connectivity_cut(h, p));
  }
}

TEST(Convert, ColumnNetModel) {
  const Graph g = make_graph(3, {{0, 1}, {1, 2}});
  const Hypergraph h = graph_to_column_net_hypergraph(g);
  // One net per vertex: {v} + neighbors.
  EXPECT_EQ(h.num_nets(), 3);
  EXPECT_EQ(h.net_size(NetId{1}), 3);  // vertex 1 with neighbors 0 and 2
}

}  // namespace
}  // namespace hgr
