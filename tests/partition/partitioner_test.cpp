#include "partition/partitioner.hpp"

#include <gtest/gtest.h>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;

TEST(Partitioner, SinglePartTrivial) {
  const Hypergraph h = random_hypergraph(20, 40, 4, 2, 1);
  PartitionConfig cfg;
  cfg.num_parts = 1;
  const Partition p = partition_hypergraph(h, cfg);
  for (const VertexId v : p.vertices()) EXPECT_EQ(p[v], PartId{0});
}

TEST(Partitioner, EmptyHypergraph) {
  Hypergraph h;
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  EXPECT_EQ(p.num_vertices(), 0);
}

TEST(Partitioner, BisectionIsBalancedAndValid) {
  const Hypergraph h = random_hypergraph(120, 240, 5, 3, 2);
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.1;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.15);
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(PartitionerSweep, BalancedValidDeterministic) {
  const auto [k, seed] = GetParam();
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, seed);
  PartitionConfig cfg;
  cfg.num_parts = k;
  cfg.epsilon = 0.10;
  cfg.seed = seed;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  EXPECT_EQ(p.k, k);
  // Every part non-empty for these sizes.
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  for (const Weight w : pw) EXPECT_GT(w, 0);
  // The compounded per-level tolerance can exceed epsilon slightly on tiny
  // instances; assert a sane bound.
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.30);
  // Determinism: same config => identical partition.
  const Partition p2 = partition_hypergraph(h, cfg);
  EXPECT_EQ(p.assignment, p2.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    KsAndSeeds, PartitionerSweep,
    ::testing::Combine(::testing::Values<Index>(2, 3, 4, 8, 16),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Partitioner, DifferentSeedsUsuallyDiffer) {
  const Hypergraph h = random_hypergraph(100, 200, 5, 3, 5);
  PartitionConfig a, b;
  a.num_parts = b.num_parts = 4;
  a.seed = 1;
  b.seed = 2;
  const Partition pa = partition_hypergraph(h, a);
  const Partition pb = partition_hypergraph(h, b);
  EXPECT_NE(pa.assignment, pb.assignment);
}

TEST(Partitioner, CutBeatsRandomAssignment) {
  const Hypergraph h = random_hypergraph(200, 500, 4, 3, 6);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  const Partition r = testing::random_partition(200, 4, 9);
  EXPECT_LT(connectivity_cut(h, p), connectivity_cut(h, r));
}

TEST(Partitioner, DirectKwayAlsoValid) {
  const Hypergraph h = random_hypergraph(120, 240, 4, 2, 7);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.kway_method = KwayMethod::kDirectKway;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  EXPECT_LE(imbalance(h.vertex_weights(), p), 0.35);
}

TEST(Partitioner, KwayPostpassNeverHurts) {
  const Hypergraph h = random_hypergraph(120, 240, 4, 2, 8);
  PartitionConfig base;
  base.num_parts = 4;
  PartitionConfig with_post = base;
  with_post.kway_postpass = true;
  const Weight cut_base =
      connectivity_cut(h, partition_hypergraph(h, base));
  const Weight cut_post =
      connectivity_cut(h, partition_hypergraph(h, with_post));
  EXPECT_LE(cut_post, cut_base);
}

TEST(Partitioner, VcycleNeverHurts) {
  const Hypergraph h = random_hypergraph(150, 300, 4, 2, 9);
  PartitionConfig base;
  base.num_parts = 4;
  PartitionConfig with_v = base;
  with_v.num_vcycles = 2;
  const Weight cut_base =
      connectivity_cut(h, partition_hypergraph(h, base));
  const Weight cut_v = connectivity_cut(h, partition_hypergraph(h, with_v));
  EXPECT_LE(cut_v, cut_base);
}

TEST(Partitioner, OddK) {
  const Hypergraph h = random_hypergraph(90, 180, 4, 2, 10);
  PartitionConfig cfg;
  cfg.num_parts = 5;
  const Partition p = partition_hypergraph(h, cfg);
  p.validate();
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  for (const Weight w : pw) EXPECT_GT(w, 0);
}

}  // namespace
}  // namespace hgr
