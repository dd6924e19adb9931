#include "hypergraph/stats.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_graph;
using testing::make_hypergraph;

TEST(Stats, GraphDegreeStats) {
  const Graph g = make_graph(4, {{0, 1}, {1, 2}, {1, 3}});
  const DegreeStats s = graph_degree_stats(g);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 3);
  EXPECT_DOUBLE_EQ(s.avg, 1.5);
}

TEST(Stats, HypergraphDegreeAndNetSize) {
  const Hypergraph h = make_hypergraph(4, {{0, 1, 2, 3}, {0, 1}});
  const DegreeStats vd = hypergraph_vertex_degree_stats(h);
  EXPECT_EQ(vd.min, 1);
  EXPECT_EQ(vd.max, 2);
  const DegreeStats ns = hypergraph_net_size_stats(h);
  EXPECT_EQ(ns.min, 2);
  EXPECT_EQ(ns.max, 4);
  EXPECT_DOUBLE_EQ(ns.avg, 3.0);
}

TEST(Stats, EmptyGraphStats) {
  const Graph g;
  const DegreeStats s = graph_degree_stats(g);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.avg, 0.0);
}

TEST(Stats, Connectivity) {
  EXPECT_TRUE(is_connected(make_graph(3, {{0, 1}, {1, 2}})));
  EXPECT_FALSE(is_connected(make_graph(4, {{0, 1}, {2, 3}})));
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_FALSE(is_connected(make_graph(2, {})));
}

}  // namespace
}  // namespace hgr
