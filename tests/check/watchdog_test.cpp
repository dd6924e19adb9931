// Regression tests for the comm deadlock watchdog: runs that would hang
// forever must instead fail fast with a per-rank diagnosis. The runtime is
// collectives-only, so the hang vectors are an injected stall (a rank that
// never publishes) and a rank that returns while its peers still wait.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "parallel/comm.hpp"

namespace hgr {
namespace {

std::shared_ptr<const fault::FaultPlan> plan(const std::string& spec) {
  return std::make_shared<const fault::FaultPlan>(fault::FaultPlan::parse(spec));
}

/// One-slice ring alltoallv: each rank sends `value` to the next rank.
std::int64_t ring_shift(RankContext& ctx, std::int64_t value) {
  const int next = (ctx.rank() + 1) % ctx.size();
  const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
  FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
  out.count(next) = 1;
  out.commit_counts();
  out.push(next, value);
  return ctx.alltoallv(out).slot(prev)[0];
}

TEST(Watchdog, RecvNobodySendsIsDiagnosed) {
  // Rank 0 stalls before publishing its alltoallv slices; ranks 1 and 2
  // wait in the exchange for data that never comes. Without the watchdog
  // this hangs.
  Comm comm(3);
  comm.set_deadlock_timeout(0.2);
  comm.set_fault_plan(plan("stall@alltoallv:rank=0"));
  try {
    comm.run([](RankContext& ctx) { (void)ring_shift(ctx, ctx.rank()); });
    FAIL() << "deadlocked run returned";
  } catch (const CommDeadlock& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: stalled (injected fault)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2: barrier"), std::string::npos) << what;
  }
}

TEST(Watchdog, MismatchedTagIsDiagnosed) {
  // The collective analogue of a tag mix-up: the two ranks run different
  // collective sequences, so rank 0's second call finds nobody to meet.
  Comm comm(2);
  comm.set_deadlock_timeout(0.2);
  try {
    comm.run([](RankContext& ctx) {
      (void)ctx.allreduce_sum<int>(1);
      if (ctx.rank() == 0) (void)ctx.bcast(std::vector<int>{1, 2, 3}, 0);
    });
    FAIL() << "deadlocked run returned";
  } catch (const CommDeadlock& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0: barrier (1 of 2 arrived)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: returned"), std::string::npos) << what;
  }
}

TEST(Watchdog, RankReturnedBeforeBarrierIsDiagnosed) {
  // Rank 0 enters a barrier its peers never reach: they returned. A
  // returned rank publishes no wait, so "all ranks blocked" alone never
  // holds; the watchdog must count it as unable to progress.
  for (const int ranks : {2, 3}) {
    Comm comm(ranks);
    comm.set_deadlock_timeout(0.2);
    WallTimer timer;
    try {
      comm.run([](RankContext& ctx) {
        if (ctx.rank() == 0) ctx.barrier();
      });
      FAIL() << "deadlocked run returned, ranks=" << ranks;
    } catch (const CommDeadlock& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0: barrier (1 of " + std::to_string(ranks) +
                          " arrived)"),
                std::string::npos)
          << what;
      for (int r = 1; r < ranks; ++r)
        EXPECT_NE(what.find("rank " + std::to_string(r) + ": returned"),
                  std::string::npos)
            << what;
    }
    EXPECT_LT(timer.seconds(), 5.0);
  }
}

TEST(Watchdog, HealthyTrafficDoesNotTrip) {
  // Several exchange+barrier rounds under a timeout shorter than the total
  // runtime of the loop, ending with ranks returning at different times:
  // progress between blocking points must keep the watchdog quiet.
  Comm comm(4);
  comm.set_deadlock_timeout(0.3);
  std::vector<std::int64_t> sums(4, 0);
  comm.run([&](RankContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      sums[static_cast<std::size_t>(ctx.rank())] +=
          ring_shift(ctx, round + ctx.rank());
      ctx.barrier();
    }
  });
  for (int r = 0; r < 4; ++r) EXPECT_GT(sums[static_cast<std::size_t>(r)], 0);
}

TEST(Watchdog, RealExceptionOutranksDeadlockReport) {
  // A rank that throws while the others block must surface the original
  // exception, not a deadlock diagnosis.
  Comm comm(2);
  comm.set_deadlock_timeout(0.2);
  EXPECT_THROW(comm.run([](RankContext& ctx) {
                 if (ctx.rank() == 0) throw std::logic_error("boom");
                 (void)ring_shift(ctx, 1);
               }),
               std::logic_error);
}

TEST(Watchdog, DisabledTimeoutMeansNoWatchdog) {
  Comm comm(2);
  comm.set_deadlock_timeout(0.0);
  int total = 0;
  comm.run([&](RankContext& ctx) {
    const int x = ctx.allreduce<int>(ctx.rank(), [](int a, int b) {
      return a + b;
    });
    if (ctx.rank() == 0) total = x;
  });
  EXPECT_EQ(total, 1);
}

TEST(Watchdog, TimeoutUpdateMidRunIsHonored) {
  // set_deadlock_timeout is atomic and re-read every watchdog poll, so
  // shortening a live run's generous timeout takes effect immediately
  // (regression: the old plain-double member was both a data race and a
  // stale snapshot — a mid-run update was ignored until the next run).
  Comm comm(2);
  comm.set_deadlock_timeout(300.0);
  WallTimer timer;
  EXPECT_THROW(comm.run([&](RankContext& ctx) {
                 if (ctx.rank() == 0) comm.set_deadlock_timeout(0.2);
                 ctx.barrier();
                 // Rank 1 returns while rank 0 waits: a deadlock under the
                 // new 0.2s timeout; under the stale 300s one this test
                 // times out.
                 if (ctx.rank() == 0) ctx.barrier();
               }),
               CommDeadlock);
  EXPECT_LT(timer.seconds(), 30.0);
}

TEST(Watchdog, CommStaysReusableAfterDeadlock) {
  Comm comm(2);
  comm.set_deadlock_timeout(0.2);
  EXPECT_THROW(comm.run([](RankContext& ctx) {
                 if (ctx.rank() == 1) ctx.barrier();
               }),
               CommDeadlock);
  // The same communicator must complete a healthy run afterwards.
  int total = 0;
  comm.run([&](RankContext& ctx) {
    const int x = ctx.allreduce<int>(1, [](int a, int b) { return a + b; });
    if (ctx.rank() == 0) total = x;
  });
  EXPECT_EQ(total, 2);
}

}  // namespace
}  // namespace hgr
