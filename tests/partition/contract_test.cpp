#include "partition/contract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/workspace.hpp"
#include "metrics/cut.hpp"
#include "partition/matching_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::planted_duplicates_hypergraph;
using testing::random_hypergraph;
using testing::random_pair_matching;

IdVector<VertexId, VertexId> identity_match(Index n) {
  IdVector<VertexId, VertexId> m(n);
  for (const VertexId v : m.ids()) m[v] = v;
  return m;
}

TEST(Contract, IdentityMatchingKeepsSizes) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {1, 2, 3}});
  const CoarseLevel level = contract(h, identity_match(4));
  EXPECT_EQ(level.coarse.num_vertices(), 4);
  EXPECT_EQ(level.coarse.num_nets(), 2);
  level.coarse.validate();
}

TEST(Contract, MergedPairSumsWeightsAndSizes) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(1, 4);
  b.set_vertex_size(0, 5);
  b.set_vertex_size(1, 6);
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.num_vertices(), 3);
  const VertexId c01 = level.fine_to_coarse[VertexId{0}];
  EXPECT_EQ(level.fine_to_coarse[VertexId{1}], c01);
  EXPECT_EQ(level.coarse.vertex_weight(c01), 7);
  EXPECT_EQ(level.coarse.vertex_size(c01), 11);
}

TEST(Contract, InternalNetDisappears) {
  const Hypergraph h = make_hypergraph(3, {{0, 1}, {1, 2}});
  auto match = identity_match(3);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  // Net {0,1} collapsed to one pin and vanished; {1,2} survives.
  EXPECT_EQ(level.coarse.num_nets(), 1);
  EXPECT_EQ(level.coarse.net_size(NetId{0}), 2);
}

TEST(Contract, IdenticalNetsMergeWithSummedCost) {
  HypergraphBuilder b(4);
  b.add_net({0, 2}, 3);
  b.add_net({1, 3}, 4);
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  match[VertexId{2}] = VertexId{3};
  match[VertexId{3}] = VertexId{2};
  // Both nets map to {c01, c23}: they must merge into one of cost 7.
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.num_nets(), 1);
  EXPECT_EQ(level.coarse.net_cost(NetId{0}), 7);
}

TEST(Contract, FixedPartPropagates) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.set_fixed_part(0, PartId{2});
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.fixed_part(level.fine_to_coarse[VertexId{0}]),
            PartId{2});
  EXPECT_EQ(level.coarse.fixed_part(level.fine_to_coarse[VertexId{2}]),
            kNoPart);
}

TEST(Contract, TotalWeightInvariant) {
  const Hypergraph h = random_hypergraph(80, 150, 5, 3, 5);
  Rng rng(6);
  PartitionConfig cfg;
  const auto match = ipm_matching(h, cfg, 0, rng);
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.total_vertex_weight(), h.total_vertex_weight());
  level.coarse.validate();
}

TEST(Contract, CutPreservedUnderProjection) {
  // Partitioning the coarse hypergraph and projecting up must give the
  // same connectivity cut (nets that vanished were internal to a coarse
  // vertex and cannot be cut by a projected partition).
  const Hypergraph h = random_hypergraph(60, 120, 4, 4, 7);
  Rng rng(8);
  PartitionConfig cfg;
  const auto match = ipm_matching(h, cfg, 0, rng);
  const CoarseLevel level = contract(h, match);

  const Partition coarse_p =
      testing::random_partition(level.coarse.num_vertices(), 3, 99);
  Partition fine_p(3, h.num_vertices());
  for (const VertexId v : fine_p.vertices())
    fine_p[v] = coarse_p[level.fine_to_coarse[v]];
  EXPECT_EQ(connectivity_cut(level.coarse, coarse_p),
            connectivity_cut(h, fine_p));
}

// The coarse nets contract() must produce, built the obvious way: map
// and sort each net's pins, drop nets left with fewer than 2, and merge
// identical pin lists into the first occurrence in net order.
struct ReferenceNets {
  std::vector<std::vector<VertexId>> pins;
  std::vector<Weight> costs;
  Index dropped = 0;  // nets left with fewer than 2 pins
  Index merged = 0;   // nets folded into an earlier identical one
};

ReferenceNets reference_nets(const Hypergraph& h,
                             const IdVector<VertexId, VertexId>& match) {
  IdVector<VertexId, VertexId> coarse_of(h.num_vertices(), kInvalidVertex);
  VertexId next{0};
  for (const VertexId v : h.vertices())
    if (match[v] >= v) coarse_of[v] = next++;
  for (const VertexId v : h.vertices())
    if (match[v] < v) coarse_of[v] = coarse_of[match[v]];

  ReferenceNets ref;
  std::map<std::vector<VertexId>, std::size_t> first;
  for (const NetId net : h.nets()) {
    std::vector<VertexId> pins;
    for (const VertexId v : h.pins(net)) pins.push_back(coarse_of[v]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) {
      ++ref.dropped;
      continue;
    }
    const auto [it, inserted] = first.emplace(pins, ref.pins.size());
    if (inserted) {
      ref.pins.push_back(std::move(pins));
      ref.costs.push_back(h.net_cost(net));
    } else {
      ref.costs[it->second] += h.net_cost(net);
      ++ref.merged;
    }
  }
  return ref;
}

void expect_nets_match_reference(const Hypergraph& coarse,
                                 const ReferenceNets& ref) {
  ASSERT_EQ(static_cast<std::size_t>(coarse.num_nets()), ref.pins.size());
  Index offset = 0;
  for (const NetId net : coarse.nets()) {
    const std::vector<VertexId>& want =
        ref.pins[static_cast<std::size_t>(net.v)];
    const auto got = coarse.pins(net);
    EXPECT_EQ(got.data() - coarse.pins(NetId{0}).data(), offset)
        << "net " << net.v;
    ASSERT_EQ(got.size(), want.size()) << "net " << net.v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "net " << net.v;
    EXPECT_EQ(coarse.net_cost(net), ref.costs[static_cast<std::size_t>(net.v)])
        << "net " << net.v;
    offset += static_cast<Index>(got.size());
  }
  EXPECT_EQ(coarse.num_pins(), offset);
}

TEST(Contract, DedupMatchesOrderedReference) {
  struct Case {
    const char* name;
    Hypergraph h;
    IdVector<VertexId, VertexId> match;
  };
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto match = random_pair_matching(120, seed);
    Hypergraph h = planted_duplicates_hypergraph(120, 400, match, seed + 10);
    cases.push_back({"planted", std::move(h), std::move(match)});
  }
  cases.push_back({"m = 0", make_hypergraph(6, {}), identity_match(6)});
  cases.push_back({"m = 1", make_hypergraph(6, {{1, 4, 5}}), identity_match(6)});
  {
    // Every net spans exactly one matched pair: all of them collapse.
    auto match = identity_match(8);
    for (Index v = 0; v < 8; v += 2) {
      match[VertexId{v}] = VertexId{v + 1};
      match[VertexId{v + 1}] = VertexId{v};
    }
    cases.push_back({"every net dropped",
                     make_hypergraph(8, {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 0}}),
                     std::move(match)});
  }

  Workspace ws;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ReferenceNets ref = reference_nets(c.h, c.match);
    if (c.h.num_nets() > 100) {  // the planted cases hit both reductions
      EXPECT_GT(ref.dropped, 0);
      EXPECT_GT(ref.merged, 0);
    }
    expect_nets_match_reference(contract(c.h, c.match).coarse, ref);
    // Twice through one arena: pooled scratch must not leak between calls.
    expect_nets_match_reference(contract(c.h, c.match, &ws).coarse, ref);
    expect_nets_match_reference(contract(c.h, c.match, &ws).coarse, ref);
  }
}

TEST(ContractDeathTest, IncompatibleFixedPairAborts) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_fixed_part(0, PartId{0});
  b.set_fixed_part(1, PartId{1});
  const Hypergraph h = b.finalize();
  IdVector<VertexId, VertexId> match(2);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  EXPECT_DEATH(contract(h, match), "incompatible fixed");
}

}  // namespace
}  // namespace hgr
