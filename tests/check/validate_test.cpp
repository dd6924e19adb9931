#include "check/validate.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "partition/contract.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using check::CheckLevel;
using check::PartitionExpectations;

std::string failure_message(const std::function<void()>& f) {
  ScopedAssertHandler guard;
  try {
    f();
  } catch (const AssertionError& e) {
    return e.what();
  }
  return "";
}

TEST(ValidatePartition, CheapCatchesFixedVertexViolation) {
  Hypergraph h = testing::make_hypergraph(4, {{0, 1, 2}, {2, 3}});
  h.set_fixed_parts({PartId{1}, kNoPart, kNoPart, kNoPart});
  Partition p(2, 4, PartId{0});  // vertex 0 belongs on part 1 but sits on 0
  PartitionExpectations expect;
  expect.context = "test";
  const std::string what = failure_message(
      [&] { check::validate_partition(h, p, CheckLevel::kCheap, expect); });
  EXPECT_NE(what.find("fixed to part 1"), std::string::npos) << what;
  EXPECT_NE(what.find("[test]"), std::string::npos) << what;
}

TEST(ValidatePartition, CheapCatchesBalanceViolation) {
  // Four unit vertices, k=2, eps=0: the bound is 2, but everything is
  // crammed onto part 0.
  const Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  Partition p(2, 4, PartId{0});
  PartitionExpectations expect;
  expect.epsilon = 0.0;
  const std::string what = failure_message(
      [&] { check::validate_partition(h, p, CheckLevel::kCheap, expect); });
  EXPECT_NE(what.find("balance bound"), std::string::npos) << what;
}

TEST(ValidatePartition, BalancedPartitionPasses) {
  ScopedAssertHandler guard;
  const Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  Partition p(2, 4, PartId{0});
  p[VertexId{2}] = p[VertexId{3}] = PartId{1};
  PartitionExpectations expect;
  expect.epsilon = 0.0;
  check::validate_partition(h, p, CheckLevel::kParanoid, expect);
}

TEST(ValidatePartition, UnattainableBalanceIsExempt) {
  // One vertex of weight 100 among unit vertices: no assignment can meet
  // eps=0, so the bound must not be enforced (best-effort territory).
  ScopedAssertHandler guard;
  HypergraphBuilder b(4);
  b.add_net({0, 1}, 1);
  b.add_net({2, 3}, 1);
  b.set_vertex_weight(0, 100);
  const Hypergraph h = b.finalize();
  Partition p(2, 4, PartId{0});
  p[VertexId{2}] = p[VertexId{3}] = PartId{1};
  PartitionExpectations expect;
  expect.epsilon = 0.0;
  check::validate_partition(h, p, CheckLevel::kCheap, expect);
}

TEST(ValidatePartition, CheapCatchesOutOfRangePart) {
  const Hypergraph h = testing::make_hypergraph(3, {{0, 1, 2}});
  Partition p(2, 3, PartId{0});
  p[VertexId{1}] = PartId{7};
  const std::string what = failure_message(
      [&] { check::validate_partition(h, p, CheckLevel::kCheap); });
  EXPECT_NE(what.find("part 7"), std::string::npos) << what;
}

TEST(ValidatePartition, ParanoidCatchesWrongReportedCut) {
  const Hypergraph h = testing::random_hypergraph(40, 60, 5, 3, 11);
  const Partition p = testing::random_partition(40, 4, 13);
  PartitionExpectations expect;
  expect.reported_cut = connectivity_cut(h, p) + 1;  // off by one
  const std::string what = failure_message(
      [&] { check::validate_partition(h, p, CheckLevel::kParanoid, expect); });
  EXPECT_NE(what.find("reported cut"), std::string::npos) << what;
}

TEST(ValidatePartition, ParanoidCatchesWrongReportedMigration) {
  const Hypergraph h = testing::random_hypergraph(40, 60, 5, 3, 17);
  const Partition old_p = testing::random_partition(40, 4, 19);
  const Partition new_p = testing::random_partition(40, 4, 23);
  PartitionExpectations expect;
  expect.old_partition = &old_p;
  expect.reported_migration =
      migration_volume(h.vertex_sizes(), old_p, new_p) + 5;
  const std::string what = failure_message([&] {
    check::validate_partition(h, new_p, CheckLevel::kParanoid, expect);
  });
  EXPECT_NE(what.find("reported migration"), std::string::npos) << what;
}

TEST(ValidatePartition, ConsistentExpectationsPassParanoid) {
  ScopedAssertHandler guard;
  const Hypergraph h = testing::random_hypergraph(40, 60, 5, 3, 29);
  const Partition old_p = testing::random_partition(40, 4, 31);
  const Partition new_p = testing::random_partition(40, 4, 37);
  PartitionExpectations expect;
  expect.reported_cut = connectivity_cut(h, new_p);
  expect.old_partition = &old_p;
  expect.reported_migration = migration_volume(h.vertex_sizes(), old_p, new_p);
  check::validate_partition(h, new_p, CheckLevel::kParanoid, expect);
}

/// Matching that pairs (0,1), (2,3), ... and self-matches a trailing odd
/// vertex — the simplest valid input for contract().
IdVector<VertexId, VertexId> pairing_match(Index n) {
  IdVector<VertexId, VertexId> match(n);
  for (Index v = 0; v + 1 < n; v += 2) {
    match[VertexId{v}] = VertexId{v + 1};
    match[VertexId{v + 1}] = VertexId{v};
  }
  if (n % 2 == 1) match[VertexId{n - 1}] = VertexId{n - 1};
  return match;
}

TEST(ValidateCoarsening, HonestContractionPasses) {
  ScopedAssertHandler guard;
  const Hypergraph h = testing::random_hypergraph(30, 50, 5, 3, 41);
  const CoarseLevel lvl = contract(h, pairing_match(30));
  check::validate_coarsening(h, lvl, CheckLevel::kCheap);

  const Partition cp =
      testing::random_partition(lvl.coarse.num_vertices(), 3, 43);
  check::validate_coarsening(h, lvl, CheckLevel::kParanoid, &cp);
}

TEST(ValidateCoarsening, CatchesBrokenSurjectivity) {
  const Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  CoarseLevel lvl = contract(h, pairing_match(4));
  ASSERT_EQ(lvl.coarse.num_vertices(), 2);
  // Redirect every fine vertex onto coarse vertex 0: coarse vertex 1 loses
  // its preimage.
  lvl.fine_to_coarse.assign(4, VertexId{0});
  const std::string what = failure_message(
      [&] { check::validate_coarsening(h, lvl, CheckLevel::kCheap); });
  EXPECT_NE(what.find("no fine preimage"), std::string::npos) << what;
}

TEST(ValidateCoarsening, CatchesWeightLoss) {
  // Contract against a fine hypergraph whose weights were inflated after
  // the fact: conservation must fail.
  const Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  const CoarseLevel lvl = contract(h, pairing_match(4));
  HypergraphBuilder b(4);
  b.add_net({0, 1}, 1);
  b.add_net({2, 3}, 1);
  b.set_vertex_weight(0, 50);
  const Hypergraph heavier = b.finalize();
  const std::string what = failure_message(
      [&] { check::validate_coarsening(heavier, lvl, CheckLevel::kCheap); });
  EXPECT_NE(what.find("total vertex weight"), std::string::npos) << what;
}

TEST(ValidateCoarsening, CatchesFixedLabelLoss) {
  Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  h.set_fixed_parts({PartId{2}, kNoPart, kNoPart, kNoPart});
  CoarseLevel lvl = contract(h, pairing_match(4));
  // Erase the coarse fixed labels wholesale: fine vertex 0's label now has
  // no coarse image.
  lvl.coarse.set_fixed_parts({});
  const std::string what = failure_message(
      [&] { check::validate_coarsening(h, lvl, CheckLevel::kCheap); });
  EXPECT_NE(what.find("fixed"), std::string::npos) << what;
}

TEST(ValidateCoarsening, ParanoidCatchesProjectionCutMismatch) {
  // A corrupted fine_to_coarse map that stays in range and surjective but
  // scrambles which side vertices land on: the projected cut diverges.
  const Hypergraph h =
      testing::make_hypergraph(6, {{0, 1}, {2, 3}, {4, 5}, {1, 2}, {3, 4}});
  CoarseLevel lvl = contract(h, pairing_match(6));
  ASSERT_EQ(lvl.coarse.num_vertices(), 3);
  Partition cp(2, 3, PartId{0});
  cp[VertexId{2}] = PartId{1};
  // Swap vertex 0 and vertex 5's images: still surjective, cut now wrong.
  std::swap(lvl.fine_to_coarse[VertexId{0}], lvl.fine_to_coarse[VertexId{5}]);
  const std::string what = failure_message([&] {
    check::validate_coarsening(h, lvl, CheckLevel::kParanoid, &cp);
  });
  EXPECT_NE(what.find("projected fine cut"), std::string::npos) << what;
}

TEST(ValidatePipeline, FullPartitionerRunsCleanAtParanoid) {
  // End-to-end: the real multilevel partitioner with validators armed at
  // every coarsening level, projection, and the final partition. A false
  // positive anywhere in the threading shows up here.
  ScopedAssertHandler guard;
  const Hypergraph h = testing::random_hypergraph(200, 320, 6, 4, 53);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.check_level = CheckLevel::kParanoid;
  const Partition p = partition_hypergraph(h, cfg);
  EXPECT_EQ(p.num_vertices(), 200);
}

TEST(ValidatePipeline, FixedVerticesRunCleanAtParanoid) {
  ScopedAssertHandler guard;
  Hypergraph h = testing::random_hypergraph(120, 180, 5, 3, 59);
  std::vector<PartId> fixed(120, kNoPart);
  for (Index v = 0; v < 120; v += 10)
    fixed[static_cast<std::size_t>(v)] = PartId{(v / 10) % 3};
  h.set_fixed_parts(std::move(fixed));
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.check_level = CheckLevel::kParanoid;
  const Partition p = partition_hypergraph(h, cfg);
  for (Index v = 0; v < 120; v += 10)
    EXPECT_EQ(p[VertexId{v}], PartId{(v / 10) % 3});
}

}  // namespace
}  // namespace hgr
