// Unit tests for the deterministic fault plan: spec parsing, the
// per-(rule, rank) match-counter windows, and the seeded probability coin.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hgr::fault {
namespace {

TEST(FaultPlan, ParseSingleRuleDefaults) {
  const FaultPlan plan = FaultPlan::parse("throw@alltoallv");
  ASSERT_EQ(plan.rules().size(), 1u);
  const FaultRule& r = plan.rules()[0];
  EXPECT_EQ(r.kind, FaultKind::kThrow);
  EXPECT_EQ(r.site, FaultSite::kAlltoallv);
  EXPECT_EQ(r.rank, -1);
  EXPECT_EQ(r.after, 1u);
  EXPECT_EQ(r.count, 1u);
  EXPECT_DOUBLE_EQ(r.probability, 1.0);
}

TEST(FaultPlan, ParseFullSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=42;stall@barrier:rank=1,after=3;"
      "delay@bcast:ms=2.5,count=0,prob=0.25");
  EXPECT_EQ(plan.seed(), 42u);
  ASSERT_EQ(plan.rules().size(), 2u);
  EXPECT_EQ(plan.rules()[0].kind, FaultKind::kStall);
  EXPECT_EQ(plan.rules()[0].site, FaultSite::kBarrier);
  EXPECT_EQ(plan.rules()[0].rank, 1);
  EXPECT_EQ(plan.rules()[0].after, 3u);
  EXPECT_EQ(plan.rules()[1].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.rules()[1].site, FaultSite::kBcast);
  EXPECT_DOUBLE_EQ(plan.rules()[1].delay_ms, 2.5);
  EXPECT_EQ(plan.rules()[1].count, 0u);
  EXPECT_DOUBLE_EQ(plan.rules()[1].probability, 0.25);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=9;throw@allreduce:rank=2,after=5,count=4;delay@any:ms=1.5");
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.seed(), plan.seed());
  ASSERT_EQ(again.rules().size(), plan.rules().size());
  for (std::size_t i = 0; i < plan.rules().size(); ++i) {
    EXPECT_EQ(again.rules()[i].kind, plan.rules()[i].kind);
    EXPECT_EQ(again.rules()[i].site, plan.rules()[i].site);
    EXPECT_EQ(again.rules()[i].rank, plan.rules()[i].rank);
    EXPECT_EQ(again.rules()[i].after, plan.rules()[i].after);
    EXPECT_EQ(again.rules()[i].count, plan.rules()[i].count);
    EXPECT_DOUBLE_EQ(again.rules()[i].delay_ms, plan.rules()[i].delay_ms);
    EXPECT_DOUBLE_EQ(again.rules()[i].probability,
                     plan.rules()[i].probability);
  }
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                              // no rules
      "seed=5",                        // seed but no rules
      "explode@barrier",               // unknown kind
      "throw@warpdrive",               // unknown site
      "throwbarrier",                  // lacks kind@site
      "throw@barrier:rank",            // option lacks key=value
      "throw@barrier:color=red",       // unknown option
      "throw@barrier:rank=notanint",   // bad value
      "throw@barrier:after=0",         // after is 1-based
      "throw@barrier:rank=4096",       // rank out of range
      "throw@barrier:prob=1.5",        // prob out of range
      "delay@bcast:ms=-1",             // negative delay
      "seed=bogus;throw@barrier",      // bad seed
      "delay@send",                    // no point-to-point sites
      "stall@recv",                    // no point-to-point sites
  };
  for (const std::string& spec : bad)
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument) << spec;
}

TEST(FaultPlan, AfterCountWindow) {
  // after=2,count=2: matches 2 and 3 fire, 1 and 4+ do not.
  const FaultPlan plan = FaultPlan::parse("throw@barrier:after=2,count=2");
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_TRUE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_TRUE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
}

TEST(FaultPlan, CountZeroFiresForever) {
  const FaultPlan plan = FaultPlan::parse("throw@barrier:count=0");
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(plan.check(FaultSite::kBarrier, 3).has_value());
}

TEST(FaultPlan, RankFilterAndPerRankCounters) {
  const FaultPlan plan = FaultPlan::parse("throw@barrier:rank=1");
  // Rank 0 never matches and never consumes the rule's window.
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_TRUE(plan.check(FaultSite::kBarrier, 1).has_value());
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 1).has_value());

  // Wildcard rank: each rank has its own counter, so each rank's second
  // call fires regardless of interleaving.
  const FaultPlan any = FaultPlan::parse("throw@barrier:after=2");
  EXPECT_FALSE(any.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_FALSE(any.check(FaultSite::kBarrier, 1).has_value());
  EXPECT_TRUE(any.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_TRUE(any.check(FaultSite::kBarrier, 1).has_value());
}

TEST(FaultPlan, SiteFilterAndAny) {
  const FaultPlan plan = FaultPlan::parse("throw@allgather:count=0");
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_FALSE(plan.check(FaultSite::kBcast, 0).has_value());
  EXPECT_TRUE(plan.check(FaultSite::kAllgather, 0).has_value());

  const FaultPlan any = FaultPlan::parse("delay@any:count=0");
  for (const FaultSite s :
       {FaultSite::kBarrier, FaultSite::kAllgather, FaultSite::kAllreduce,
        FaultSite::kBcast, FaultSite::kAlltoallv, FaultSite::kServe})
    EXPECT_TRUE(any.check(s, 0).has_value()) << to_string(s);
}

TEST(FaultPlan, ResetRestartsTheSchedule) {
  const FaultPlan plan = FaultPlan::parse("throw@barrier:after=1,count=1");
  EXPECT_TRUE(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_FALSE(plan.check(FaultSite::kBarrier, 0).has_value());
  plan.reset();
  EXPECT_TRUE(plan.check(FaultSite::kBarrier, 0).has_value());
}

TEST(FaultPlan, ProbabilityIsSeedDeterministic) {
  // The coin is a pure function of (seed, rule, rank, match index): two
  // replays of the same plan fire at exactly the same match indices.
  const FaultPlan plan =
      FaultPlan::parse("seed=123;throw@barrier:count=0,prob=0.5");
  std::vector<bool> first, second;
  for (int i = 0; i < 200; ++i)
    first.push_back(plan.check(FaultSite::kBarrier, 0).has_value());
  plan.reset();
  for (int i = 0; i < 200; ++i)
    second.push_back(plan.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_EQ(first, second);
  // And at p=0.5 over 200 trials, some fire and some do not.
  int fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);

  // A different seed gives a different (but equally reproducible) pattern.
  const FaultPlan other =
      FaultPlan::parse("seed=124;throw@barrier:count=0,prob=0.5");
  std::vector<bool> third;
  for (int i = 0; i < 200; ++i)
    third.push_back(other.check(FaultSite::kBarrier, 0).has_value());
  EXPECT_NE(first, third);
}

TEST(FaultPlan, DecisionCarriesKindAndDiagnosis) {
  const FaultPlan plan = FaultPlan::parse("delay@alltoallv:ms=7.5,count=0");
  const std::optional<FaultDecision> d = plan.check(FaultSite::kAlltoallv, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(d->delay_ms, 7.5);
  EXPECT_NE(d->description.find("delay@alltoallv"), std::string::npos)
      << d->description;
  EXPECT_NE(d->description.find("rank=2"), std::string::npos)
      << d->description;
}

TEST(FaultPlan, FirstMatchingRuleWins) {
  const FaultPlan plan =
      FaultPlan::parse("delay@any:ms=1,count=0;throw@any:count=0");
  const std::optional<FaultDecision> d = plan.check(FaultSite::kBarrier, 0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, FaultKind::kDelay);
}

}  // namespace
}  // namespace hgr::fault
