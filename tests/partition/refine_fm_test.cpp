#include "partition/refine_fm.hpp"

#include <gtest/gtest.h>

#include "metrics/cut.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;

BisectionTargets even_targets(const Hypergraph& h, double eps = 0.1) {
  BisectionTargets t;
  t.target0 = h.total_vertex_weight() / 2;
  t.target1 = h.total_vertex_weight() - t.target0;
  t.epsilon = eps;
  return t;
}

using Sides = IdVector<VertexId, PartId>;

/// Shorthand for literal side assignments in the tests below.
Sides sides(std::initializer_list<Index> raw) {
  Sides out;
  for (const Index q : raw) out.push_back(PartId{q});
  return out;
}

Weight cut_of(const Hypergraph& h, const Sides& side) {
  Partition p(2, h.num_vertices());
  p.assignment = side;
  return connectivity_cut(h, p);
}

Weight side_weight(const Hypergraph& h, const Sides& side, PartId s) {
  Weight w = 0;
  for (const VertexId v : h.vertices())
    if (side[v] == s) w += h.vertex_weight(v);
  return w;
}

TEST(FmRefine, NeverWorsensCut) {
  PartitionConfig cfg;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph h = random_hypergraph(50, 100, 5, 3, seed);
    Sides side(50);
    Rng init(seed + 50);
    for (auto& s : side) s = PartId{static_cast<Index>(init.below(2))};
    const Weight before = cut_of(h, side);
    Rng rng(seed);
    const FmResult r = fm_refine_bisection(h, side, even_targets(h), cfg, rng);
    EXPECT_EQ(r.initial_cut, before);
    EXPECT_LE(r.final_cut, before);
    EXPECT_EQ(r.final_cut, cut_of(h, side));
  }
}

TEST(FmRefine, FindsObviousImprovement) {
  // Two cliques joined by one net; a deliberately terrible start.
  const Hypergraph h = make_hypergraph(
      8, {{0, 1, 2, 3}, {0, 1}, {2, 3}, {4, 5, 6, 7}, {4, 5}, {6, 7},
          {3, 4}});
  Sides side = sides({0, 1, 0, 1, 0, 1, 0, 1});  // everything cut
  PartitionConfig cfg;
  Rng rng(1);
  fm_refine_bisection(h, side, even_targets(h, 0.01), cfg, rng);
  EXPECT_EQ(cut_of(h, side), 1);  // only the bridging net remains cut
  EXPECT_EQ(side_weight(h, side, PartId{0}), 4);
}

TEST(FmRefine, RespectsFixedVertices) {
  HypergraphBuilder b(6);
  b.add_net({0, 1, 2});
  b.add_net({3, 4, 5});
  b.add_net({0, 5});
  b.set_fixed_part(0, PartId{0});
  b.set_fixed_part(5, PartId{1});
  const Hypergraph h = b.finalize();
  Sides side = sides({0, 0, 0, 1, 1, 1});
  PartitionConfig cfg;
  Rng rng(2);
  fm_refine_bisection(h, side, even_targets(h), cfg, rng);
  EXPECT_EQ(side[VertexId{0}], PartId{0});
  EXPECT_EQ(side[VertexId{5}], PartId{1});
}

TEST(FmRefine, RepairsImbalance) {
  // Start with everything on side 0; FM must evacuate to meet targets.
  const Hypergraph h = random_hypergraph(40, 80, 4, 2, 17);
  Sides side(40, PartId{0});
  PartitionConfig cfg;
  cfg.max_refine_passes = 8;
  const BisectionTargets t = even_targets(h, 0.1);
  Rng rng(3);
  fm_refine_bisection(h, side, t, cfg, rng);
  EXPECT_LE(side_weight(h, side, PartId{0}), t.max_weight(0));
  EXPECT_LE(side_weight(h, side, PartId{1}), t.max_weight(1));
}

TEST(FmRefine, KeepsBalanceInvariant) {
  PartitionConfig cfg;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Hypergraph h = random_hypergraph(60, 120, 5, 3, seed + 30);
    const BisectionTargets t = even_targets(h, 0.15);
    // Feasible start: round-robin by weight.
    Sides side(60);
    for (const VertexId v : side.ids()) side[v] = PartId{v.v % 2};
    Rng rng(seed);
    fm_refine_bisection(h, side, t, cfg, rng);
    EXPECT_LE(side_weight(h, side, PartId{0}), t.max_weight(0));
    EXPECT_LE(side_weight(h, side, PartId{1}), t.max_weight(1));
  }
}

TEST(FmRefine, AllFixedMeansNoMoves) {
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2, 3});
  for (Index v = 0; v < 4; ++v) b.set_fixed_part(v, PartId{v % 2});
  const Hypergraph h = b.finalize();
  Sides side = sides({0, 1, 0, 1});
  PartitionConfig cfg;
  Rng rng(6);
  const FmResult r = fm_refine_bisection(h, side, even_targets(h), cfg, rng);
  EXPECT_EQ(r.initial_cut, r.final_cut);
  EXPECT_EQ(side, sides({0, 1, 0, 1}));
}

TEST(FmRefine, ZeroCostNetsDoNotCrash) {
  HypergraphBuilder b(4);
  b.add_net({0, 1}, 0);
  b.add_net({1, 2}, 2);
  b.add_net({2, 3}, 0);
  const Hypergraph h = b.finalize();
  Sides side = sides({0, 1, 0, 1});
  PartitionConfig cfg;
  Rng rng(7);
  const FmResult r = fm_refine_bisection(h, side, even_targets(h), cfg, rng);
  EXPECT_LE(r.final_cut, r.initial_cut);
}

}  // namespace
}  // namespace hgr
