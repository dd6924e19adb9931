#include "hypergraph/builder.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hgr {
namespace {

TEST(HypergraphBuilder, DeduplicatesPinsWithinNet) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 1, 0, 2});
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_nets(), 1);
  EXPECT_EQ(h.net_size(NetId{0}), 3);
}

TEST(HypergraphBuilder, DropsSinglePinNetsByDefault) {
  HypergraphBuilder b(4);
  b.add_net({0});
  b.add_net({1, 1});  // collapses to a single pin
  b.add_net({2, 1}, 4);
  b.add_net({3});
  b.add_net({3, 0, 3, 1}, 6);
  const Hypergraph h = b.finalize();
  ASSERT_EQ(h.num_nets(), 2);
  // Kept nets keep their order, sorted pins and costs.
  const std::vector<VertexId> first(h.pins(NetId{0}).begin(),
                                    h.pins(NetId{0}).end());
  const std::vector<VertexId> second(h.pins(NetId{1}).begin(),
                                     h.pins(NetId{1}).end());
  EXPECT_EQ(first, (std::vector<VertexId>{VertexId{1}, VertexId{2}}));
  EXPECT_EQ(second, (std::vector<VertexId>{VertexId{0}, VertexId{1},
                                           VertexId{3}}));
  EXPECT_EQ(h.net_cost(NetId{0}), 4);
  EXPECT_EQ(h.net_cost(NetId{1}), 6);
  h.validate();
}

TEST(HypergraphBuilder, KeepSinglePinNetsOption) {
  HypergraphBuilder b(2);
  b.keep_single_pin_nets(true);
  b.add_net({0});
  b.add_net({0, 1});
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_nets(), 2);
}

TEST(HypergraphBuilder, NetCostsPreserved) {
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 5);
  b.add_net({1, 2}, 9);
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.net_cost(NetId{0}), 5);
  EXPECT_EQ(h.net_cost(NetId{1}), 9);
}

TEST(HypergraphBuilder, BulkWeightSetters) {
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2, 3});
  b.set_all_vertex_weights(3);
  b.set_all_vertex_sizes(2);
  const Hypergraph h = b.finalize();
  for (Index v = 0; v < 4; ++v) {
    EXPECT_EQ(h.vertex_weight(VertexId{v}), 3);
    EXPECT_EQ(h.vertex_size(VertexId{v}), 2);
  }
}

TEST(HypergraphBuilder, FixedVerticesOnlyWhenSet) {
  {
    HypergraphBuilder b(2);
    b.add_net({0, 1});
    EXPECT_FALSE(b.finalize().has_fixed());
  }
  {
    HypergraphBuilder b(2);
    b.add_net({0, 1});
    b.set_fixed_part(0, PartId{1});
    const Hypergraph h = b.finalize();
    EXPECT_TRUE(h.has_fixed());
    EXPECT_EQ(h.fixed_part(VertexId{0}), PartId{1});
    EXPECT_EQ(h.fixed_part(VertexId{1}), kNoPart);
  }
}

TEST(GraphBuilder, MergesAndSymmetrizes) {
  GraphBuilder b(4);
  b.add_edge(2, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(0, 3, 4);
  const Graph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 2);
  g.validate();
}

TEST(GraphBuilder, EmptyGraphFinalizes) {
  GraphBuilder b(3);
  const Graph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.num_vertices(), 3);
  g.validate();
}

}  // namespace
}  // namespace hgr
