#include "parallel/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>

namespace hgr {
namespace {

TEST(Comm, SingleRankRuns) {
  Comm comm(1);
  std::atomic<int> ran{0};
  comm.run([&](RankContext& ctx) {
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.size(), 1);
    ++ran;
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Comm, AllRanksLaunch) {
  Comm comm(4);
  std::atomic<int> mask{0};
  comm.run([&](RankContext& ctx) { mask |= 1 << ctx.rank(); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(Comm, BarrierSynchronizes) {
  Comm comm(3);
  std::atomic<int> phase1{0};
  comm.run([&](RankContext& ctx) {
    ++phase1;
    ctx.barrier();
    EXPECT_EQ(phase1.load(), 3);  // nobody passes before everyone arrives
  });
}

TEST(Comm, AllgatherCollectsInRankOrder) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    const std::vector<std::int32_t> mine{ctx.rank(), ctx.rank() * 10};
    const FlatBuffer<std::int32_t> all =
        ctx.allgatherv<std::int32_t>({mine.data(), mine.size()});
    ASSERT_EQ(all.slots(), 4);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all.slot(r).size(), 2u);
      EXPECT_EQ(all.slot(r)[0], r);
      EXPECT_EQ(all.slot(r)[1], r * 10);
    }
  });
}

TEST(Comm, AllgatherHandlesEmptyContributions) {
  Comm comm(3);
  comm.run([](RankContext& ctx) {
    const std::vector<std::int32_t> mine =
        ctx.rank() == 1 ? std::vector<std::int32_t>{5}
                        : std::vector<std::int32_t>{};
    const FlatBuffer<std::int32_t> all =
        ctx.allgatherv<std::int32_t>({mine.data(), mine.size()});
    EXPECT_TRUE(all.slot(0).empty());
    ASSERT_EQ(all.slot(1).size(), 1u);
    EXPECT_EQ(all.slot(1)[0], 5);
    EXPECT_TRUE(all.slot(2).empty());
  });
}

TEST(Comm, Allreduce) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    EXPECT_EQ(ctx.allreduce_sum<std::int64_t>(ctx.rank() + 1), 10);
    const auto max = [](std::int64_t a, std::int64_t b) {
      return a > b ? a : b;
    };
    const auto min = [](std::int64_t a, std::int64_t b) {
      return a < b ? a : b;
    };
    EXPECT_EQ(ctx.allreduce<std::int64_t>(ctx.rank(), max), 3);
    EXPECT_EQ(ctx.allreduce<std::int64_t>(ctx.rank(), min), 0);
  });
}

TEST(Comm, Bcast) {
  Comm comm(3);
  comm.run([](RankContext& ctx) {
    const std::vector<std::int32_t> mine =
        ctx.rank() == 2 ? std::vector<std::int32_t>{42, 43}
                        : std::vector<std::int32_t>{};
    const auto got = ctx.bcast(mine, 2);
    EXPECT_EQ(got, (std::vector<std::int32_t>{42, 43}));
  });
}

TEST(Comm, Alltoallv) {
  Comm comm(3);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int32_t> outgoing = ctx.make_buffer<std::int32_t>();
    for (int d = 0; d < 3; ++d) outgoing.count(d) = 1;
    outgoing.commit_counts();
    for (int d = 0; d < 3; ++d) outgoing.push(d, ctx.rank() * 10 + d);
    const FlatBuffer<std::int32_t> incoming = ctx.alltoallv(outgoing);
    ASSERT_EQ(incoming.slots(), 3);
    for (int s = 0; s < 3; ++s) {
      ASSERT_EQ(incoming.slot(s).size(), 1u);
      EXPECT_EQ(incoming.slot(s)[0], s * 10 + ctx.rank());
    }
  });
}

// An alltoallv whose only nonempty slice is the rank's own: the self
// slice is delivered but never counted as traffic.
TEST(Comm, TrafficCountersExcludeSelfSends) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int32_t> outgoing = ctx.make_buffer<std::int32_t>();
    outgoing.count(ctx.rank()) = 1;
    outgoing.commit_counts();
    outgoing.push(ctx.rank(), 1);
    const FlatBuffer<std::int32_t> incoming = ctx.alltoallv(outgoing);
    ASSERT_EQ(incoming.slot(ctx.rank()).size(), 1u);
    EXPECT_EQ(incoming.slot(ctx.rank())[0], 1);
    EXPECT_TRUE(incoming.slot(1 - ctx.rank()).empty());
  });
  EXPECT_EQ(comm.total_stats().bytes_sent, 0u);
  EXPECT_EQ(comm.total_stats().bytes_recv, 0u);
  EXPECT_EQ(comm.telemetry().p2p_bytes_at(0, 1), 0u);
  EXPECT_EQ(comm.telemetry().p2p_bytes_at(1, 0), 0u);
  EXPECT_GT(comm.total_stats().collectives, 0u);
}

TEST(Comm, ReusableAcrossRuns) {
  Comm comm(2);
  for (int run = 0; run < 3; ++run) {
    comm.run([run](RankContext& ctx) {
      const auto sum = ctx.allreduce_sum<std::int32_t>(run);
      EXPECT_EQ(sum, 2 * run);
    });
  }
}

// A rank that throws while its peers sit in a barrier must not
// std::terminate or deadlock: the peers are woken, all threads joined, and
// the original exception surfaces from run().
TEST(Comm, ExceptionPropagatesWhilePeersBlockInBarrier) {
  Comm comm(3);
  try {
    comm.run([](RankContext& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("rank 1 boom");
      ctx.barrier();  // would wait forever without abort wake-up
    });
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 boom");
  }
}

// The receiving side of an exchange: rank 1 waits in an alltoallv for the
// slice rank 0 never publishes.
TEST(Comm, ExceptionPropagatesWhilePeersBlockInRecv) {
  Comm comm(2);
  try {
    comm.run([](RankContext& ctx) {
      if (ctx.rank() == 0) throw std::runtime_error("sender died");
      FlatBuffer<std::int32_t> outgoing = ctx.make_buffer<std::int32_t>();
      outgoing.count(ctx.rank()) = 1;
      outgoing.commit_counts();
      outgoing.push(ctx.rank(), 7);
      (void)ctx.alltoallv(outgoing);  // rank 0's slice never arrives
    });
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sender died");
  }
}

TEST(Comm, ExceptionPropagatesWhilePeersBlockInCollective) {
  Comm comm(4);
  EXPECT_THROW(comm.run([](RankContext& ctx) {
                 if (ctx.rank() == 2) throw std::runtime_error("boom");
                 ctx.allreduce_sum<std::int64_t>(1);
               }),
               std::runtime_error);
}

TEST(Comm, LowestRankExceptionWins) {
  Comm comm(4);
  try {
    comm.run([](RankContext& ctx) {
      throw std::runtime_error("rank " + std::to_string(ctx.rank()));
    });
    FAIL() << "run() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0");
  }
}

// Ranks that enter different collectives at the same fence are diagnosed
// on every rank before any payload is read: no garbage result, no hang.
TEST(Comm, MismatchedCollectivesAreDiagnosed) {
  using Call = std::function<void(RankContext&)>;
  const Call bcast_root0 = [](RankContext& ctx) {
    ctx.bcast(std::vector<std::int32_t>{1, 2, 3}, 0);
  };
  const Call bcast_root1 = [](RankContext& ctx) {
    ctx.bcast(std::vector<std::int32_t>{1, 2, 3}, 1);
  };
  const Call allreduce = [](RankContext& ctx) {
    ctx.allreduce_sum<std::int64_t>(5);
  };
  const Call allgatherv = [](RankContext& ctx) {
    const std::vector<std::int32_t> mine = {ctx.rank()};
    ctx.allgatherv(std::span<const std::int32_t>(mine));
  };
  const Call alltoallv = [](RankContext& ctx) {
    FlatBuffer<std::int32_t> outgoing = ctx.make_buffer<std::int32_t>();
    for (int d = 0; d < ctx.size(); ++d) outgoing.count(d) = 1;
    outgoing.commit_counts();
    for (int d = 0; d < ctx.size(); ++d) outgoing.push(d, ctx.rank());
    ctx.alltoallv(outgoing);
  };
  const Call barrier = [](RankContext& ctx) { ctx.barrier(); };
  struct Case {
    Call rest;   // what ranks 0..p-2 call
    Call last;   // what rank p-1 calls
    const char* rest_name;
    const char* last_name;
  };
  const std::vector<Case> cases = {
      {bcast_root0, allreduce, "bcast(root 0)", "allreduce"},
      {allgatherv, alltoallv, "allgather", "alltoallv"},
      {barrier, allreduce, "barrier", "allreduce"},
      {bcast_root0, bcast_root1, "bcast(root 0)", "bcast(root 1)"},
  };
  for (const int ranks : {2, 3}) {
    for (const Case& c : cases) {
      Comm comm(ranks);
      comm.set_deadlock_timeout(10.0);
      try {
        comm.run([&](RankContext& ctx) {
          ctx.allreduce_sum<std::int32_t>(1);  // a congruent call first
          (ctx.rank() == ranks - 1 ? c.last : c.rest)(ctx);
        });
        ADD_FAILURE() << ranks << " ranks, " << c.rest_name << " vs "
                      << c.last_name << ": run() should have thrown";
      } catch (const CollectiveMismatch& e) {
        // Rank 0's diagnosis is rethrown; it names both collectives.
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("rank 0 entered ") + c.rest_name +
                            " as call #1"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("rank " + std::to_string(ranks - 1) +
                            " entered " + c.last_name + " as call #1"),
                  std::string::npos)
            << what;
      }
      // The communicator stays usable after a diagnosed mismatch.
      comm.run([&](RankContext& ctx) {
        EXPECT_EQ(ctx.allreduce_sum<std::int32_t>(1), ranks);
      });
    }
  }
}

TEST(Comm, ReusableAfterFailedRun) {
  Comm comm(3);
  EXPECT_THROW(comm.run([](RankContext& ctx) {
                 if (ctx.rank() == 0) throw std::runtime_error("x");
                 ctx.barrier();
               }),
               std::runtime_error);
  // The next run starts from a clean slate: barriers, the exchange window,
  // and the abort flag are all reset.
  comm.run([](RankContext& ctx) {
    EXPECT_EQ(ctx.allreduce_sum<std::int32_t>(1), 3);
    ctx.barrier();
    FlatBuffer<std::int32_t> outgoing = ctx.make_buffer<std::int32_t>();
    for (int d = 0; d < 3; ++d) outgoing.count(d) = 1;
    outgoing.commit_counts();
    for (int d = 0; d < 3; ++d) outgoing.push(d, ctx.rank());
    const FlatBuffer<std::int32_t> incoming = ctx.alltoallv(outgoing);
    for (int s = 0; s < 3; ++s) {
      ASSERT_EQ(incoming.slot(s).size(), 1u);
      EXPECT_EQ(incoming.slot(s)[0], s);
    }
  });
}

}  // namespace
}  // namespace hgr
