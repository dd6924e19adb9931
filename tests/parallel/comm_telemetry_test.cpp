#include "parallel/comm_telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/mini_json.hpp"
#include "obs/trace.hpp"
#include "parallel/comm.hpp"

namespace hgr {
namespace {

using testjson::JsonArray;
using testjson::JsonObject;
using testjson::JsonParser;
using testjson::as_array;
using testjson::as_number;
using testjson::as_object;

constexpr std::size_t kI64 = sizeof(std::int64_t);
constexpr std::size_t kWords = 3;  // payload length of the ring exchange

/// Alltoallv in which `ctx` sends `words` int64s to rank `dest` only (no
/// slice when dest is -1), returning the incoming buffer.
FlatBuffer<std::int64_t> send_only_to(RankContext& ctx, int dest,
                                      std::size_t words) {
  FlatBuffer<std::int64_t> out = ctx.make_buffer<std::int64_t>();
  if (dest >= 0) out.count(dest) = words;
  out.commit_counts();
  if (dest >= 0)
    for (std::size_t i = 0; i < words; ++i) out.push(dest, ctx.rank());
  return ctx.alltoallv(out);
}

// A ring exchange (each rank sends to (rank+1)%p) has a known traffic
// matrix: a message of a known size in each (r, r+1) cell, an empty
// message in every other off-diagonal cell (alltoallv charges one message
// per destination), and zero bytes off the ring.
TEST(CommTelemetry, RingPatternProducesExpectedP2PMatrix) {
  constexpr int kRanks = 4;
  Comm comm(kRanks);
  comm.run([](RankContext& ctx) {
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    const FlatBuffer<std::int64_t> got = send_only_to(ctx, next, kWords);
    EXPECT_EQ(got.slot(prev).size(), kWords);
    EXPECT_EQ(got.total(), kWords);
  });
  const CommTelemetry t = comm.telemetry();
  ASSERT_EQ(t.num_ranks, kRanks);
  for (int src = 0; src < kRanks; ++src) {
    for (int dst = 0; dst < kRanks; ++dst) {
      const bool on_ring = dst == (src + 1) % kRanks;
      EXPECT_EQ(t.p2p_messages_at(src, dst), src == dst ? 0u : 1u)
          << "src=" << src << " dst=" << dst;
      EXPECT_EQ(t.p2p_bytes_at(src, dst), on_ring ? kWords * kI64 : 0u)
          << "src=" << src << " dst=" << dst;
    }
  }
  // Per-rank totals follow: every rank sent p-1 messages, one of them
  // nonempty, and received one from each peer.
  std::uint64_t total_sent = 0;
  for (const RankCommTelemetry& r : t.ranks) {
    EXPECT_EQ(r.messages_sent, kRanks - 1u);
    EXPECT_EQ(r.messages_recv, kRanks - 1u);
    EXPECT_EQ(r.bytes_sent, kWords * kI64);
    EXPECT_EQ(r.bytes_recv, kWords * kI64);
    total_sent += r.bytes_sent;
  }
  EXPECT_EQ(total_sent, kRanks * kWords * kI64);
  // Uniform traffic: imbalance is exactly 1.
  EXPECT_DOUBLE_EQ(t.send_byte_imbalance(), 1.0);
}

TEST(CommTelemetry, CollectiveCallsCountedPerRank) {
  constexpr int kRanks = 3;
  Comm comm(kRanks);
  comm.run([](RankContext& ctx) {
    ctx.barrier();
    ctx.barrier();
    const std::int32_t mine = ctx.rank();
    ctx.allgatherv<std::int32_t>({&mine, 1});
    ctx.allreduce_sum(std::int64_t{1});
  });
  const CommTelemetry t = comm.telemetry();
  for (const RankCommTelemetry& r : t.ranks) {
    EXPECT_EQ(
        r.collective_calls[static_cast<int>(CollectiveKind::kBarrier)], 2u);
    EXPECT_EQ(
        r.collective_calls[static_cast<int>(CollectiveKind::kAllgather)], 1u);
    EXPECT_EQ(
        r.collective_calls[static_cast<int>(CollectiveKind::kAllreduce)], 1u);
    EXPECT_EQ(r.collective_calls[static_cast<int>(CollectiveKind::kBcast)],
              0u);
  }
}

TEST(CommTelemetry, BarrierWaitChargedToEarlyArrivals) {
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    if (ctx.rank() == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.barrier();
  });
  const CommTelemetry t = comm.telemetry();
  // Rank 0 arrived ~30ms early and waited; rank 1 barely waited.
  EXPECT_GE(t.ranks[0].barrier_wait_seconds, 0.010);
  EXPECT_LT(t.ranks[1].barrier_wait_seconds,
            t.ranks[0].barrier_wait_seconds);
  // The wait shows up as a fraction of the run's wall time.
  EXPECT_GT(t.run_seconds, 0.0);
  EXPECT_GT(t.max_wait_fraction(), 0.0);
  EXPECT_LE(t.max_wait_fraction(), 1.0 + 1e-9);
}

TEST(CommTelemetry, AccumulateSumsAndGrows) {
  CommTelemetry a;
  a.resize(2);
  a.ranks[0].bytes_sent = 10;
  a.p2p_bytes_at(0, 1) = 10;
  a.run_seconds = 1.0;
  a.runs = 1;

  CommTelemetry b;
  b.resize(3);
  b.ranks[0].bytes_sent = 5;
  b.ranks[2].bytes_sent = 7;
  b.p2p_bytes_at(0, 1) = 5;
  b.p2p_bytes_at(2, 0) = 7;
  b.run_seconds = 0.5;
  b.runs = 1;

  a.accumulate(b);
  ASSERT_EQ(a.num_ranks, 3);
  EXPECT_EQ(a.ranks[0].bytes_sent, 15u);
  EXPECT_EQ(a.ranks[2].bytes_sent, 7u);
  EXPECT_EQ(a.p2p_bytes_at(0, 1), 15u);
  EXPECT_EQ(a.p2p_bytes_at(2, 0), 7u);
  EXPECT_DOUBLE_EQ(a.run_seconds, 1.5);
  EXPECT_EQ(a.runs, 2u);
}

TEST(CommTelemetry, JsonRoundTripsWithWaitFractions) {
  constexpr int kRanks = 2;
  Comm comm(kRanks);
  comm.run([](RankContext& ctx) {
    send_only_to(ctx, ctx.rank() == 0 ? 1 : -1, 2);
    ctx.barrier();
  });
  CommTelemetry t = comm.telemetry();
  t.run_seconds = 2.0;  // deterministic denominator for wait_fraction
  const std::string json = t.to_json();
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& root = as_object(*doc);
  EXPECT_EQ(as_number(*root.at("num_ranks")), kRanks);
  const JsonArray& ranks = as_array(*root.at("ranks"));
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(kRanks));
  const JsonObject& r0 = as_object(*ranks[0]);
  EXPECT_EQ(as_number(*r0.at("bytes_sent")), 2.0 * kI64);
  EXPECT_EQ(as_number(*r0.at("messages_sent")), 1.0);
  ASSERT_TRUE(r0.count("wait_fraction"));
  const double f0 = as_number(*r0.at("wait_fraction"));
  EXPECT_GE(f0, 0.0);
  EXPECT_LE(f0, 1.0);
  // p2p matrices round-trip as arrays of rows.
  const JsonArray& p2p = as_array(*root.at("p2p_bytes"));
  ASSERT_EQ(p2p.size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(as_number(*as_array(*p2p[0])[1]), 2.0 * kI64);
  EXPECT_EQ(as_number(*as_array(*p2p[1])[0]), 0.0);
}

TEST(CommTelemetry, RunPublishesCommSectionIntoRegistry) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  Comm comm(2);
  comm.run([](RankContext& ctx) {
    send_only_to(ctx, ctx.rank() == 0 ? 1 : -1, 1);
  });
  const auto sections = reg.sections();
  ASSERT_TRUE(sections.count("comm"));
  JsonParser parser(sections.at("comm"));
  const auto doc = parser.parse();
  const JsonObject& root = as_object(*doc);
  EXPECT_GE(as_number(*root.at("num_ranks")), 2.0);
  EXPECT_GE(as_number(*root.at("runs")), 1.0);
}

TEST(CommTelemetry, ImbalanceAndWaitFractionEdgeCases) {
  CommTelemetry t;
  t.resize(2);
  EXPECT_DOUBLE_EQ(t.send_byte_imbalance(), 0.0);  // nothing sent
  EXPECT_DOUBLE_EQ(t.max_wait_fraction(), 0.0);    // no run time
  t.ranks[0].bytes_sent = 300;
  t.ranks[1].bytes_sent = 100;
  // max/avg = 300/200.
  EXPECT_DOUBLE_EQ(t.send_byte_imbalance(), 1.5);
  t.run_seconds = 2.0;
  t.ranks[1].barrier_wait_seconds = 1.0;
  EXPECT_DOUBLE_EQ(t.max_wait_fraction(), 0.5);
}

}  // namespace
}  // namespace hgr
