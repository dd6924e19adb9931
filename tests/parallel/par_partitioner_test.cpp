#include "parallel/par_partitioner.hpp"

#include <gtest/gtest.h>

#include "core/repartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

class ParPartitionerSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParPartitionerSweep, ValidBalancedAcrossRankCounts) {
  const int ranks = GetParam();
  const Hypergraph h = random_hypergraph(150, 300, 5, 3, 3);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = ranks;
  cfg.base.num_parts = 4;
  cfg.base.epsilon = 0.1;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  r.partition.validate();
  EXPECT_EQ(r.partition.k, 4);
  EXPECT_LE(imbalance(h.vertex_weights(), r.partition), 0.35);
  EXPECT_GT(r.levels, 0);
  if (ranks > 1) {
    EXPECT_GT(r.traffic.bytes_sent, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParPartitionerSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParPartitioner, HonorsFixedVertices) {
  Hypergraph h = random_hypergraph(100, 200, 4, 2, 7);
  std::vector<PartId> fixed(100, kNoPart);
  Rng rng(5);
  for (auto& f : fixed)
    if (rng.chance(0.25)) f = static_cast<PartId>(rng.below(4));
  h.set_fixed_parts(fixed);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 3;
  cfg.base.num_parts = 4;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  for (const VertexId v : r.partition.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      EXPECT_EQ(r.partition[v], f);
    }
  }
}

TEST(ParPartitioner, QualityWithinFactorOfSerial) {
  const Graph g = make_grid3d(8, 8, 8, false);
  const Hypergraph h = graph_to_hypergraph(g);
  ParallelPartitionConfig pcfg;
  pcfg.num_ranks = 4;
  pcfg.base.num_parts = 4;
  const ParallelPartitionResult pr = parallel_partition_hypergraph(h, pcfg);

  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition sp = partition_hypergraph(h, scfg);
  EXPECT_LE(connectivity_cut(h, pr.partition),
            3 * connectivity_cut(h, sp) + 50);
}

TEST(ParPartitioner, ParallelRepartitionDecodesAndMigratesLittle) {
  const Graph g = make_grid3d(6, 6, 6, false);
  const Hypergraph h = graph_to_hypergraph(g);
  PartitionConfig scfg;
  scfg.num_parts = 4;
  const Partition old_p = partition_hypergraph(h, scfg);

  RepartitionerConfig cfg;
  cfg.num_ranks = 2;
  cfg.partition.num_parts = 4;
  cfg.alpha = 1;
  const RepartitionResult r = hypergraph_repartition(h, old_p, cfg);
  EXPECT_EQ(r.partition.num_vertices(), h.num_vertices());
  r.partition.validate();
  // alpha=1 on an unchanged problem: the augmented model should pin most
  // vertices to their old parts.
  EXPECT_LT(migration_volume(h.vertex_sizes(), old_p, r.partition),
            h.num_vertices() / 4);
}

TEST(ParPartitioner, SinglePartShortCircuit) {
  const Hypergraph h = random_hypergraph(30, 50, 4, 2, 9);
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.base.num_parts = 1;
  const ParallelPartitionResult r = parallel_partition_hypergraph(h, cfg);
  for (const VertexId v : r.partition.vertices())
    EXPECT_EQ(r.partition[v], PartId{0});
}

}  // namespace
}  // namespace hgr
