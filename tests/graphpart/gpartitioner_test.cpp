#include "graphpart/gpartitioner.hpp"

#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

using testing::random_graph;

class GraphPartitionerSweep
    : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(GraphPartitionerSweep, ValidBalancedDeterministic) {
  const auto [k, seed] = GetParam();
  const Graph g = random_graph(200, 500, seed);
  PartitionConfig cfg;
  cfg.num_parts = k;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  const Partition p = partition_graph(g, cfg);
  p.validate();
  EXPECT_LE(imbalance(g.vertex_weights(), p), 0.35);
  const Partition p2 = partition_graph(g, cfg);
  EXPECT_EQ(p.assignment, p2.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    KsAndSeeds, GraphPartitionerSweep,
    ::testing::Combine(::testing::Values<Index>(2, 4, 8),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(GraphPartitioner, CutBeatsRandom) {
  const Graph g = make_grid3d(8, 8, 8, false);
  PartitionConfig cfg;
  cfg.num_parts = 8;
  const Partition p = partition_graph(g, cfg);
  const Partition r = testing::random_partition(g.num_vertices(), 8, 3);
  EXPECT_LT(edge_cut(g, p), edge_cut(g, r) / 2);
}

TEST(GraphPartitioner, MeshBisectionNearSurface) {
  // Bisecting a 10x10x10 grid should find a cut close to a face
  // (100 edges), certainly below 3x that.
  const Graph g = make_grid3d(10, 10, 10, false);
  PartitionConfig cfg;
  cfg.num_parts = 2;
  const Partition p = partition_graph(g, cfg);
  EXPECT_LT(edge_cut(g, p), 300);
}

TEST(GraphPartitioner, SinglePart) {
  const Graph g = random_graph(30, 40, 7);
  PartitionConfig cfg;
  cfg.num_parts = 1;
  const Partition p = partition_graph(g, cfg);
  for (const VertexId v : p.vertices()) EXPECT_EQ(p[v], PartId{0});
}

TEST(GraphPartitioner, EmptyGraph) {
  Graph g;
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_graph(g, cfg);
  EXPECT_EQ(p.num_vertices(), 0);
}

PartitionConfig adaptive_cfg(Index k, std::uint64_t seed = 1) {
  PartitionConfig cfg;
  cfg.num_parts = k;
  cfg.epsilon = 0.1;
  cfg.seed = seed;
  return cfg;
}

TEST(AdaptiveRepart, BalancedStartStaysNearlyPut) {
  // A good old partition with no imbalance: adaptive repartitioning should
  // migrate very little.
  const Graph g = make_grid3d(8, 8, 8, false);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_graph(g, scfg);
  const Partition new_p = adaptive_repartition(g, old_p, adaptive_cfg(4), 100);
  const Weight mig = migration_volume(g.vertex_sizes(), old_p, new_p);
  EXPECT_LT(mig, g.num_vertices() / 10);
}

TEST(AdaptiveRepart, RepairsImbalance) {
  Graph g = random_graph(120, 240, 5);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_graph(g, scfg);
  // Inflate the weights of part 0 fourfold: now unbalanced.
  for (Index v = 0; v < g.num_vertices(); ++v)
    if (old_p[VertexId{v}] == PartId{0})
      g.set_vertex_weight(v, g.vertex_weight(v) * 4);
  ASSERT_GT(imbalance(g.vertex_weights(), old_p), 0.2);
  const Partition new_p = adaptive_repartition(g, old_p, adaptive_cfg(4), 10);
  EXPECT_LE(imbalance(g.vertex_weights(), new_p), 0.25);
}

TEST(AdaptiveRepart, SmallAlphaMovesLessThanScratch) {
  // alpha=1 weighs migration as much as a full iteration of comm: the
  // adaptive method must migrate (much) less than repartitioning from
  // scratch without remap.
  const Graph g = random_graph(200, 500, 7);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_graph(g, scfg);
  Graph perturbed = g;
  Rng rng(9);
  for (Index v = 0; v < g.num_vertices(); ++v)
    if (rng.chance(0.3))
      perturbed.set_vertex_weight(v, g.vertex_weight(v) * 3);
  const Partition adaptive =
      adaptive_repartition(perturbed, old_p, adaptive_cfg(4), 1);
  PartitionConfig fresh = scfg;
  fresh.seed = 123;
  const Partition scratch = partition_graph(perturbed, fresh);
  EXPECT_LT(migration_volume(perturbed.vertex_sizes(), old_p, adaptive),
            migration_volume(perturbed.vertex_sizes(), old_p, scratch));
}

TEST(AdaptiveRepart, PreservesK) {
  const Graph g = random_graph(60, 120, 11);
  PartitionConfig scfg;
  scfg.num_parts = 3;
  const Partition old_p = partition_graph(g, scfg);
  const Partition new_p = adaptive_repartition(g, old_p, adaptive_cfg(3), 50);
  EXPECT_EQ(new_p.k, 3);
  new_p.validate();
}

TEST(AdaptiveRepart, SinglePartNoop) {
  const Graph g = random_graph(30, 60, 13);
  const Partition old_p(1, 30, PartId{0});
  const Partition new_p = adaptive_repartition(g, old_p, adaptive_cfg(1), 10);
  EXPECT_EQ(new_p.assignment, old_p.assignment);
}

TEST(AdaptiveRepart, DeterministicForSeed) {
  const Graph g = random_graph(80, 160, 17);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_graph(g, scfg);
  const Partition a = adaptive_repartition(g, old_p, adaptive_cfg(4, 5), 10);
  const Partition b = adaptive_repartition(g, old_p, adaptive_cfg(4, 5), 10);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace hgr
