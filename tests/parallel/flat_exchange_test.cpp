// FlatBuffer / BufferPool unit tests and FlatExchange collective
// round-trips: the flat (CSR counts/displs + contiguous payload) wire
// representation of the collectives, including the edge cases — empty
// payloads, single-rank runs, ragged per-destination counts — and the
// pool-reuse guarantees.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/comm.hpp"
#include "parallel/flat_buffer.hpp"

namespace hgr {
namespace {

TEST(FlatBufferPool, AcquireAllocatesAndReuses) {
  BufferPool pool;
  PoolBlock a = pool.acquire(100);
  EXPECT_TRUE(a.valid());
  EXPECT_GE(a.capacity(), 100u);
  pool.release(std::move(a));
  EXPECT_EQ(pool.free_blocks(), 1u);

  const PoolBlock b = pool.acquire(80);  // fits in the cached block
  EXPECT_GE(b.capacity(), 100u);
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(FlatBufferPool, PicksTightestFit) {
  BufferPool pool;
  PoolBlock small = pool.acquire(128);
  PoolBlock large = pool.acquire(4096);
  pool.release(std::move(large));
  pool.release(std::move(small));
  const PoolBlock got = pool.acquire(64);
  EXPECT_EQ(got.capacity(), 128u);  // not the 4096 block
}

TEST(FlatBufferPool, MinimumBlockSize) {
  BufferPool pool;
  const PoolBlock b = pool.acquire(1);
  EXPECT_GE(b.capacity(), BufferPool::kMinBlockBytes);
}

TEST(FlatBufferPool, OverflowDropsSmallestCachedBlock) {
  BufferPool pool;
  std::vector<PoolBlock> blocks;
  for (std::size_t i = 0; i <= BufferPool::kMaxFreeBlocks; ++i)
    blocks.push_back(pool.acquire(100 * (i + 1)));
  for (PoolBlock& b : blocks) pool.release(std::move(b));
  EXPECT_EQ(pool.free_blocks(), BufferPool::kMaxFreeBlocks);
  // The smallest (100-byte) block was the one dropped.
  std::size_t min_cap = SIZE_MAX;
  for (std::size_t i = 0; i < BufferPool::kMaxFreeBlocks; ++i) {
    PoolBlock b = pool.acquire(0);
    min_cap = std::min(min_cap, b.capacity());
  }
  EXPECT_GT(min_cap, 100u);
}

TEST(FlatBufferPool, ClearDropsCachedBlocksOnly) {
  BufferPool pool;
  PoolBlock out = pool.acquire(256);
  pool.release(pool.acquire(512));
  EXPECT_EQ(pool.free_blocks(), 1u);
  pool.clear();
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(pool.resident_bytes(), 0u);
  // An outstanding block can still be returned after the reset.
  pool.release(std::move(out));
  EXPECT_EQ(pool.free_blocks(), 1u);
}

TEST(FlatBuffer, CountCommitFillRoundTrip) {
  BufferPool pool;
  FlatBuffer<std::int32_t> buf(3, &pool);
  buf.count(0) += 2;
  buf.count(2) += 1;
  buf.commit_counts();
  EXPECT_FALSE(buf.filled());
  buf.push(0, 10);
  buf.push(2, 30);
  buf.push(0, 11);
  EXPECT_TRUE(buf.filled());
  EXPECT_EQ(buf.total(), 3u);
  ASSERT_EQ(buf.slot(0).size(), 2u);
  EXPECT_EQ(buf.slot(0)[0], 10);
  EXPECT_EQ(buf.slot(0)[1], 11);
  EXPECT_TRUE(buf.slot(1).empty());
  ASSERT_EQ(buf.slot(2).size(), 1u);
  EXPECT_EQ(buf.slot(2)[0], 30);
}

TEST(FlatBuffer, PushNClaimsContiguousRange) {
  FlatBuffer<std::int64_t> buf(2);
  buf.count(1) += 4;
  buf.commit_counts();
  auto span = buf.push_n(1, 4);
  std::iota(span.begin(), span.end(), 5);
  EXPECT_TRUE(buf.filled());
  EXPECT_EQ(buf.slot(1)[3], 8);
}

TEST(FlatBuffer, ResetReusesPooledBlockAfterGrowth) {
  BufferPool pool;
  FlatBuffer<std::int64_t> buf(2, &pool);
  for (int round = 0; round < 5; ++round) {
    buf.reset(2, &pool);
    buf.count(0) += 16;
    buf.commit_counts();
    for (int i = 0; i < 16; ++i) buf.push(0, i);
    EXPECT_TRUE(buf.filled());
  }
  // The first commit allocates; later rounds keep the same block, so the
  // pool never hands out a second payload allocation.
  EXPECT_EQ(pool.stats().allocations, 1u);
}

TEST(FlatBuffer, DestructionReturnsBlockToPool) {
  BufferPool pool;
  {
    FlatBuffer<std::int32_t> buf(1, &pool);
    buf.count(0) += 8;
    buf.commit_counts();
    EXPECT_EQ(pool.free_blocks(), 0u);
  }
  EXPECT_EQ(pool.free_blocks(), 1u);
}

TEST(FlatExchange, AlltoallvEmptyPayloads) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
    out.commit_counts();  // every slice empty
    const FlatBuffer<std::int64_t> in = ctx.alltoallv(out);
    EXPECT_EQ(in.total(), 0u);
    for (int s = 0; s < ctx.size(); ++s) EXPECT_TRUE(in.slot(s).empty());
  });
  EXPECT_EQ(comm.total_stats().bytes_sent, 0u);
}

TEST(FlatExchange, AlltoallvSingleRank) {
  Comm comm(1);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int32_t> out = ctx.make_buffer<std::int32_t>();
    out.count(0) += 3;
    out.commit_counts();
    for (std::int32_t i = 0; i < 3; ++i) out.push(0, i * 7);
    const FlatBuffer<std::int32_t> in = ctx.alltoallv(out);
    ASSERT_EQ(in.total(), 3u);
    for (std::int32_t i = 0; i < 3; ++i) EXPECT_EQ(in.slot(0)[i], i * 7);
  });
  // Pure self-traffic is never accounted (see comm_telemetry.hpp).
  EXPECT_EQ(comm.total_stats().bytes_sent, 0u);
}

TEST(FlatExchange, AlltoallvRaggedCounts) {
  // Rank r sends r+d+1 words to destination d, except nothing to the rank
  // below it — ragged slice lengths including empties. Word value encodes
  // (src, dst, index) so placement and order are fully checked.
  const int p = 4;
  Comm comm(p);
  comm.run([p](RankContext& ctx) {
    const int me = ctx.rank();
    FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) out.commit_counts();
      for (int d = 0; d < p; ++d) {
        if (d == (me + p - 1) % p) continue;  // hole
        const std::size_t n = static_cast<std::size_t>(me + d + 1);
        if (phase == 0) {
          out.count(d) += n;
          continue;
        }
        for (std::size_t i = 0; i < n; ++i)
          out.push(d, 10000 * me + 100 * d + static_cast<std::int64_t>(i));
      }
    }
    const FlatBuffer<std::int64_t> in = ctx.alltoallv(out);
    for (int s = 0; s < p; ++s) {
      if (me == (s + p - 1) % p) {
        EXPECT_TRUE(in.slot(s).empty());
        continue;
      }
      const std::size_t n = static_cast<std::size_t>(s + me + 1);
      ASSERT_EQ(in.slot(s).size(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(in.slot(s)[i],
                  10000 * s + 100 * me + static_cast<std::int64_t>(i));
    }
  });
}

TEST(FlatExchange, AllgathervRaggedContributions) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    const int me = ctx.rank();
    std::vector<std::int64_t> mine;  // rank r contributes r words (rank 0: 0)
    for (int i = 0; i < me; ++i) mine.push_back(10 * me + i);
    const FlatBuffer<std::int64_t> all =
        ctx.allgatherv<std::int64_t>({mine.data(), mine.size()});
    EXPECT_EQ(all.total(), 0u + 1u + 2u + 3u);
    for (int s = 0; s < ctx.size(); ++s) {
      ASSERT_EQ(all.slot(s).size(), static_cast<std::size_t>(s));
      for (int i = 0; i < s; ++i) EXPECT_EQ(all.slot(s)[i], 10 * s + i);
    }
  });
}

TEST(FlatExchange, BcastNonRootContributesNothing) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    // Only the root supplies a payload; everyone receives the root's.
    const std::vector<std::int32_t> mine =
        ctx.rank() == 2 ? std::vector<std::int32_t>{5, 6, 7}
                        : std::vector<std::int32_t>{};
    const std::vector<std::int32_t> got = ctx.bcast(mine, 2);
    EXPECT_EQ(got, (std::vector<std::int32_t>{5, 6, 7}));
  });
}

TEST(FlatExchange, AllreduceStructFold) {
  struct MinMax {
    std::int64_t lo;
    std::int64_t hi;
  };
  Comm comm(5);
  comm.run([](RankContext& ctx) {
    const std::int64_t mine = 3 + 2 * ctx.rank();
    const MinMax got =
        ctx.allreduce<MinMax>({mine, mine}, [](MinMax a, MinMax b) {
          return MinMax{a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
        });
    EXPECT_EQ(got.lo, 3);
    EXPECT_EQ(got.hi, 3 + 2 * 4);
  });
}

TEST(FlatExchange, PoolReuseAcrossCollectiveRounds) {
  Comm comm(4);
  comm.run([](RankContext& ctx) {
    std::uint64_t allocs_after_warmup = 0;
    for (int round = 0; round < 10; ++round) {
      FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
      for (int d = 0; d < ctx.size(); ++d) out.count(d) += 32;
      out.commit_counts();
      for (int d = 0; d < ctx.size(); ++d)
        for (int i = 0; i < 32; ++i) out.push(d, i);
      const FlatBuffer<std::int64_t> in = ctx.alltoallv(out);
      EXPECT_EQ(in.total(), 32u * 4u);
      if (round == 1) allocs_after_warmup = ctx.pool().stats().allocations;
    }
    // Steady state: rounds 2..9 allocate nothing new from this rank's pool.
    EXPECT_EQ(ctx.pool().stats().allocations, allocs_after_warmup);
  });
}

TEST(FlatExchange, ClearBufferPoolsFreesResidentBlocks) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
    for (int d = 0; d < ctx.size(); ++d) out.count(d) += 64;
    out.commit_counts();
    for (int d = 0; d < ctx.size(); ++d)
      for (int i = 0; i < 64; ++i) out.push(d, i);
    ctx.alltoallv(out);
  });
  bool any_resident = false;
  for (int r = 0; r < 2; ++r)
    any_resident |= comm.rank_pool(r).free_blocks() > 0;
  EXPECT_TRUE(any_resident);
  comm.clear_buffer_pools();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(comm.rank_pool(r).free_blocks(), 0u);
    EXPECT_EQ(comm.rank_pool(r).resident_bytes(), 0u);
  }
}

TEST(FlatExchange, ReceivedBufferCanBeResent) {
  // An incoming FlatBuffer is a fully-built (filled) buffer: echoing it
  // back through a second alltoallv must work. With 2 ranks, echoing the
  // received buffer returns each rank's original payload.
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    const int me = ctx.rank();
    FlatBuffer<std::int32_t> out = ctx.make_buffer<std::int32_t>();
    for (int d = 0; d < 2; ++d) out.count(d) += 2;
    out.commit_counts();
    for (int d = 0; d < 2; ++d) {
      out.push(d, 100 * me + 10 * d);
      out.push(d, 100 * me + 10 * d + 1);
    }
    const FlatBuffer<std::int32_t> once = ctx.alltoallv(out);
    const FlatBuffer<std::int32_t> twice = ctx.alltoallv(once);
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(twice.slot(s).size(), 2u);
      EXPECT_EQ(twice.slot(s)[0], 100 * me + 10 * s);
      EXPECT_EQ(twice.slot(s)[1], 100 * me + 10 * s + 1);
    }
  });
}

}  // namespace
}  // namespace hgr
