// Stress and ordering tests for the message-passing runtime: the
// correctness of every parallel algorithm rests on these semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/rng.hpp"
#include "parallel/comm.hpp"

namespace hgr {
namespace {

TEST(CommStress, ManySmallMessagesAllArrive) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    const int rounds = 200;
    // Everyone sends `rounds` messages to the next rank, receives from the
    // previous, with interleaved sends/recvs.
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    std::int64_t received_sum = 0;
    for (int i = 0; i < rounds; ++i) {
      ctx.send<std::int64_t>(next, 5,
                             std::vector<std::int64_t>{ctx.rank() * 1000 + i});
      const auto m = ctx.recv<std::int64_t>(prev, 5);
      received_sum += m[0];
    }
    std::int64_t expect = 0;
    for (int i = 0; i < rounds; ++i) expect += prev * 1000 + i;
    EXPECT_EQ(received_sum, expect);
  });
}

TEST(CommStress, DistinctTagsDoNotInterfere) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      // Send on tag 2 first, then tag 1; receiver reads tag 1 first.
      ctx.send<std::int32_t>(1, 2, std::vector<std::int32_t>{22});
      ctx.send<std::int32_t>(1, 1, std::vector<std::int32_t>{11});
    } else {
      EXPECT_EQ(ctx.recv<std::int32_t>(0, 1)[0], 11);
      EXPECT_EQ(ctx.recv<std::int32_t>(0, 2)[0], 22);
    }
  });
}

TEST(CommStress, LargePayloadIntegrity) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    const std::size_t n = 1 << 18;  // 2 MiB of int64
    if (ctx.rank() == 0) {
      std::vector<std::int64_t> big(n);
      std::iota(big.begin(), big.end(), std::int64_t{7});
      ctx.send<std::int64_t>(1, 3, big);
    } else {
      const auto got = ctx.recv<std::int64_t>(0, 3);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got.front(), 7);
      EXPECT_EQ(got.back(), static_cast<std::int64_t>(7 + n - 1));
    }
  });
}

TEST(CommStress, RepeatedCollectivesStayInLockstep) {
  Comm comm(8);
  comm.run([](RankContext& ctx) {
    Rng rng(static_cast<std::uint64_t>(ctx.rank()) + 1);
    for (int round = 0; round < 50; ++round) {
      const auto sum =
          ctx.allreduce_sum<std::int64_t>(ctx.rank() + round);
      // sum = (0+1+..+7) + 8*round
      EXPECT_EQ(sum, 28 + 8 * round);
      // Random tiny local delays shift thread interleavings.
      if (rng.chance(0.3)) {
        std::atomic<int> spin{0};
        for (int i = 0; i < 1000; ++i)
          spin.fetch_add(i, std::memory_order_relaxed);
      }
    }
  });
}

TEST(CommStress, AlltoallvAsymmetricSizes) {
  Comm comm(3);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int32_t> out = ctx.make_buffer<std::int32_t>();
    // Rank r sends r+1 copies of its rank to each destination d != r.
    const auto copies = static_cast<std::size_t>(ctx.rank() + 1);
    for (int d = 0; d < 3; ++d)
      if (d != ctx.rank()) out.count(d) = copies;
    out.commit_counts();
    for (int d = 0; d < 3; ++d)
      if (d != ctx.rank())
        for (std::size_t i = 0; i < copies; ++i) out.push(d, ctx.rank());
    const FlatBuffer<std::int32_t> in = ctx.alltoallv(out);
    for (int s = 0; s < 3; ++s) {
      if (s == ctx.rank()) {
        EXPECT_TRUE(in.slot(s).empty());
      } else {
        ASSERT_EQ(in.slot(s).size(), static_cast<std::size_t>(s + 1));
        for (const auto x : in.slot(s)) EXPECT_EQ(x, s);
      }
    }
  });
}

}  // namespace
}  // namespace hgr
