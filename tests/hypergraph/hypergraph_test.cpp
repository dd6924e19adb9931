#include "hypergraph/hypergraph.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/check_level.hpp"
#include "hypergraph/builder.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;

TEST(Hypergraph, EmptyHypergraph) {
  Hypergraph h;
  EXPECT_EQ(h.num_vertices(), 0);
  EXPECT_EQ(h.num_nets(), 0);
  EXPECT_EQ(h.num_pins(), 0);
  EXPECT_EQ(h.total_vertex_weight(), 0);
}

TEST(Hypergraph, BasicStructure) {
  const Hypergraph h = make_hypergraph(5, {{0, 1, 2}, {2, 3}, {3, 4, 0}});
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_nets(), 3);
  EXPECT_EQ(h.num_pins(), 8);
  EXPECT_EQ(h.net_size(NetId{0}), 3);
  EXPECT_EQ(h.net_size(NetId{1}), 2);
  h.validate();
}

TEST(Hypergraph, TransposeConsistency) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {1, 2}, {1, 3}, {0, 3}});
  EXPECT_EQ(h.vertex_degree(VertexId{1}), 3);
  EXPECT_EQ(h.vertex_degree(VertexId{2}), 1);
  // Vertex 1 is in nets 0, 1, 2.
  const auto nets = h.incident_nets(VertexId{1});
  EXPECT_EQ(std::vector<NetId>(nets.begin(), nets.end()),
            (std::vector<NetId>{NetId{0}, NetId{1}, NetId{2}}));
}

TEST(Hypergraph, WeightsAndSizes) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2});
  b.set_vertex_weight(0, 10);
  b.set_vertex_size(0, 7);
  b.set_vertex_weight(2, 5);
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.vertex_weight(VertexId{0}), 10);
  EXPECT_EQ(h.vertex_size(VertexId{0}), 7);
  EXPECT_EQ(h.vertex_weight(VertexId{1}), 1);
  EXPECT_EQ(h.total_vertex_weight(), 16);
}

TEST(Hypergraph, SetVertexWeightUpdatesTotal) {
  Hypergraph h = make_hypergraph(3, {{0, 1, 2}});
  EXPECT_EQ(h.total_vertex_weight(), 3);
  h.set_vertex_weight(VertexId{1}, 100);
  EXPECT_EQ(h.total_vertex_weight(), 102);
  h.set_vertex_size(VertexId{1}, 9);
  EXPECT_EQ(h.vertex_size(VertexId{1}), 9);
}

TEST(Hypergraph, FixedPartsDefaultFree) {
  const Hypergraph h = make_hypergraph(3, {{0, 1, 2}});
  EXPECT_FALSE(h.has_fixed());
  EXPECT_EQ(h.fixed_part(VertexId{0}), kNoPart);
}

TEST(Hypergraph, FixedPartsViaBuilder) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 2});
  b.set_fixed_part(1, PartId{2});
  const Hypergraph h = b.finalize();
  EXPECT_TRUE(h.has_fixed());
  EXPECT_EQ(h.fixed_part(VertexId{0}), kNoPart);
  EXPECT_EQ(h.fixed_part(VertexId{1}), PartId{2});
  h.validate(3);
}

TEST(Hypergraph, SetFixedPartsAndClear) {
  Hypergraph h = make_hypergraph(2, {{0, 1}});
  h.set_fixed_parts({PartId{0}, kNoPart});
  EXPECT_TRUE(h.has_fixed());
  EXPECT_EQ(h.fixed_part(VertexId{0}), PartId{0});
  h.set_fixed_parts({});
  EXPECT_FALSE(h.has_fixed());
}

TEST(Hypergraph, SummaryMentionsCounts) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {2, 3}});
  const std::string s = h.summary();
  EXPECT_NE(s.find("|V|=4"), std::string::npos);
  EXPECT_NE(s.find("|N|=2"), std::string::npos);
}

TEST(Hypergraph, ValidateAcceptsPinsSharedAcrossNets) {
  // Consecutive nets that share pins are not duplicates within a net.
  const Hypergraph h = make_hypergraph(3, {{0, 1}, {1, 2}, {0, 1, 2}});
  h.validate();
}

TEST(HypergraphDeathTest, ValidateCatchesNonAdjacentDuplicatePin) {
  // Raw CSR: the builder would have deduplicated {0, 1, 0}.
  const Hypergraph h({0, 2, 5}, {VertexId{1}, VertexId{2}, VertexId{0},
                                  VertexId{1}, VertexId{0}},
                     {1, 1, 1}, {1, 1, 1}, {1, 1});
  EXPECT_DEATH(h.validate(), "duplicate pin within a net");
}

TEST(HypergraphDeathTest, ValidateCatchesPinOutOfRange) {
  EXPECT_DEATH(
      {
        const Hypergraph h({0, 2}, {VertexId{0}, VertexId{2}}, {1, 1},
                           {1, 1}, {1});
        h.validate();
      },
      "pin out of range");
}

TEST(HypergraphDeathTest, ValidateCatchesBadFixed) {
  Hypergraph h = make_hypergraph(2, {{0, 1}});
  h.set_fixed_parts({PartId{5}, kNoPart});
  EXPECT_DEATH(h.validate(2), "fixed part out of range");
}

TEST(ValidateHypergraph, WellFormedPassesParanoid) {
  ScopedAssertHandler guard;
  const Hypergraph h = testing::random_hypergraph(60, 90, 6, 4, 7);
  h.validate(4);
  h.validate();
}

TEST(ValidateHypergraph, OffLevelNeverFires) {
  // The epoch driver and hgr_cli validate behind the check-level gate:
  // even a malformed fixed array goes unexamined at the off level.
  ScopedAssertHandler guard;
  Hypergraph h = make_hypergraph(3, {{0, 1}, {1, 2}});
  h.set_fixed_parts({PartId{5}, kNoPart, kNoPart});
  if (check::enabled(check::CheckLevel::kOff)) h.validate(2);
  EXPECT_THROW(
      {
        if (check::enabled(check::CheckLevel::kCheap)) h.validate(2);
      },
      AssertionError);
}

TEST(ValidateHypergraph, CatchesFixedLabelOutOfRange) {
  Hypergraph h = make_hypergraph(3, {{0, 1}, {1, 2}});
  h.set_fixed_parts({PartId{5}, kNoPart, kNoPart});
  ScopedAssertHandler guard;
  std::string what;
  try {
    h.validate(2);
  } catch (const AssertionError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("fixed to part 5"), std::string::npos) << what;
}

}  // namespace
}  // namespace hgr
