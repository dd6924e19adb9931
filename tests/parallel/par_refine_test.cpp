#include "parallel/par_refine.hpp"

#include <gtest/gtest.h>

#include <mutex>

#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;
using testing::random_partition;

TEST(ParRefine, NeverWorsensCutAndRanksAgree) {
  const Hypergraph h = random_hypergraph(80, 160, 5, 3, 3);
  const Partition start = random_partition(80, 4, 7);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.5;  // random start is unbalanced; allow generous cap

  Comm comm(3);
  std::mutex m;
  std::vector<Partition> results;
  std::vector<ParRefineResult> stats;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    const ParRefineResult r = parallel_refine(ctx, h, p, cfg);
    std::lock_guard lock(m);
    results.push_back(std::move(p));
    stats.push_back(r);
  });
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_EQ(results[i].assignment, results[0].assignment);
  EXPECT_LE(stats[0].final_cut, stats[0].initial_cut);
  EXPECT_EQ(stats[0].final_cut, connectivity_cut(h, results[0]));
}

TEST(ParRefine, RespectsFixedVertices) {
  Hypergraph h = random_hypergraph(60, 120, 4, 2, 5);
  std::vector<PartId> fixed(60, kNoPart);
  fixed[0] = PartId{2};
  fixed[5] = PartId{1};
  h.set_fixed_parts(fixed);
  Partition start = random_partition(60, 3, 9);
  start[VertexId{0}] = PartId{2};
  start[VertexId{5}] = PartId{1};
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.5;
  Comm comm(2);
  std::mutex m;
  Partition result;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    parallel_refine(ctx, h, p, cfg);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      result = std::move(p);
    }
  });
  EXPECT_EQ(result[VertexId{0}], PartId{2});
  EXPECT_EQ(result[VertexId{5}], PartId{1});
}

// Regression: the truncated balance bound (floor of avg*(1+eps)) rejected
// moves into parts that Eq. 1 admits whenever the average weight is
// fractional; the ceil-aware bound accepts them.
TEST(ParRefine, AcceptsMoveUpToCeilOfFractionalAverage) {
  HypergraphBuilder b(3);
  b.add_net({0, 2});
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(1, 3);
  b.set_vertex_weight(2, 1);
  const Hypergraph h = b.finalize();
  Partition start(2, 3);
  start[VertexId{0}] = PartId{0};
  start[VertexId{1}] = PartId{0};
  start[VertexId{2}] = PartId{1};
  PartitionConfig cfg;
  cfg.num_parts = 2;
  cfg.epsilon = 0.05;
  Comm comm(2);
  std::mutex m;
  Partition result;
  ParRefineResult stats;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    const ParRefineResult r = parallel_refine(ctx, h, p, cfg);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      result = std::move(p);
      stats = r;
    }
  });
  // v0 (weight 3) must join part 1 (reaching 4 = ceil(7/2)) to clear the
  // cut net; the old truncated bound capped part 1 at 3 and kept cut = 1.
  EXPECT_GE(stats.moves, 1);
  EXPECT_EQ(stats.final_cut, 0);
  EXPECT_EQ(connectivity_cut(h, result), 0);
}

// Regression for the candidate-dedup rewrite of State::best_move: the
// incrementally maintained cut must still equal a from-scratch recount on
// dense nets, where the same destination part appears many times per scan.
TEST(ParRefine, FinalCutMatchesRecomputeOnDenseNets) {
  // Few large nets: every vertex sees every part through each net.
  Rng net_rng(31);
  HypergraphBuilder b(40);
  for (int net = 0; net < 12; ++net) {
    std::vector<Index> pins;
    for (Index v = 0; v < 40; ++v)
      if (net_rng.below(4) != 0) pins.push_back(v);  // ~30 pins per net
    b.add_net(pins, 1 + static_cast<Weight>(net_rng.below(3)));
  }
  const Hypergraph h = b.finalize();
  const Partition start = testing::random_partition(40, 4, 17);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.5;
  Comm comm(3);
  std::mutex m;
  std::vector<Partition> results;
  std::vector<ParRefineResult> stats;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    const ParRefineResult r = parallel_refine(ctx, h, p, cfg);
    std::lock_guard lock(m);
    results.push_back(std::move(p));
    stats.push_back(r);
  });
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].assignment, results[0].assignment);
    EXPECT_EQ(stats[i].final_cut, connectivity_cut(h, results[i]));
    EXPECT_LE(stats[i].final_cut, stats[i].initial_cut);
  }
}

// The dedup means each best_move call evaluates gain() at most k-1 times,
// so the summed counter is bounded by passes * n * (k-1). The old
// once-per-pin behavior evaluates ~degree * net_size times per vertex
// (~90 here vs k-1 = 3) and blows far past this bound.
TEST(ParRefine, GainEvalCountIsPerPartNotPerPin) {
  HypergraphBuilder b(30);
  for (int net = 0; net < 10; ++net) {
    std::vector<Index> pins;
    for (Index v = 0; v < 30; ++v) pins.push_back(v);  // every net is full
    b.add_net(pins, 1);
  }
  const Hypergraph h = b.finalize();
  const Partition start = testing::random_partition(30, 4, 5);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.5;

  obs::Registry reg;
  obs::ScopedRegistry scoped(reg);
  Comm comm(2);
  std::mutex m;
  ParRefineResult stats;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    const ParRefineResult r = parallel_refine(ctx, h, p, cfg);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      stats = r;
    }
  });
  const std::uint64_t evals = reg.counter_value("refine.gain_evals");
  EXPECT_GT(evals, 0u);
  const std::uint64_t per_part_bound =
      static_cast<std::uint64_t>(stats.passes) * 30u *
      static_cast<std::uint64_t>(cfg.num_parts - 1);
  EXPECT_LE(evals, per_part_bound);
}

TEST(ParRefine, RespectsBalanceCap) {
  const Hypergraph h = random_hypergraph(90, 180, 4, 2, 11);
  // Balanced round-robin start.
  Partition start(3, 90);
  for (Index v = 0; v < 90; ++v) start[VertexId{v}] = PartId{v % 3};
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.2;
  Comm comm(4);
  std::mutex m;
  Partition result;
  comm.run([&](RankContext& ctx) {
    Partition p = start;
    parallel_refine(ctx, h, p, cfg);
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      result = std::move(p);
    }
  });
  EXPECT_LE(imbalance(h.vertex_weights(), result),
            imbalance(h.vertex_weights(), start) + cfg.epsilon + 0.05);
}

}  // namespace
}  // namespace hgr
