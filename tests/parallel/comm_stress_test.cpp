// Stress and ordering tests for the collective runtime: the correctness of
// every parallel algorithm rests on these semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "parallel/comm.hpp"

namespace hgr {
namespace {

TEST(CommStress, ManySmallMessagesAllArrive) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    const int rounds = 200;
    // Every round, each rank sends one word to the next rank in a ring and
    // receives one from the previous, through a one-slice alltoallv.
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    std::int64_t received_sum = 0;
    for (int i = 0; i < rounds; ++i) {
      FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
      out.count(next) = 1;
      out.commit_counts();
      out.push(next, ctx.rank() * 1000 + i);
      const FlatBuffer<std::int64_t> in = ctx.alltoallv(out);
      ASSERT_EQ(in.slot(prev).size(), 1u);
      ASSERT_EQ(in.total(), 1u);
      received_sum += in.slot(prev)[0];
    }
    std::int64_t expect = 0;
    for (int i = 0; i < rounds; ++i) expect += prev * 1000 + i;
    EXPECT_EQ(received_sum, expect);
  });
  EXPECT_EQ(comm.total_stats().bytes_recv, 4u * 200u * sizeof(std::int64_t));
}

// A 2 MiB payload first through alltoallv, then through allgatherv: each
// grows its window half past every earlier publish.
TEST(CommStress, LargePayloadIntegrity) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    const std::size_t n = 1 << 18;  // 2 MiB of int64
    std::vector<std::int64_t> want(n);
    std::iota(want.begin(), want.end(), std::int64_t{7});
    const std::span<const std::int64_t> mine =
        ctx.rank() == 0 ? std::span<const std::int64_t>(want)
                        : std::span<const std::int64_t>();
    FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
    out.count(1) = mine.size();
    out.commit_counts();
    std::copy(mine.begin(), mine.end(), out.push_n(1, mine.size()).begin());
    const FlatBuffer<std::int64_t> in = ctx.alltoallv(out);
    const FlatBuffer<std::int64_t> all = ctx.allgatherv(mine);
    const auto intact = [&want](std::span<const std::int64_t> got) {
      return std::equal(got.begin(), got.end(), want.begin(), want.end());
    };
    if (ctx.rank() == 1) {
      EXPECT_TRUE(intact(in.slot(0)));
    }
    EXPECT_TRUE(intact(all.slot(0)));
    EXPECT_TRUE(all.slot(1).empty());
  });
  EXPECT_EQ(comm.rank_stats(1).bytes_recv, (std::size_t{1} << 18) * 8);
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
