// Histogram / Gauge metric tests: bucket-layout edge cases over the full
// signed 64-bit range, quantile and merge semantics, JSON shape, and a
// concurrent record/merge/snapshot property test against a serial
// reference (run under TSan in CI — the suite name must keep matching the
// thread-sanitize regex).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "mini_json.hpp"
#include "obs/trace.hpp"

namespace hgr::obs {
namespace {

using testjson::as_number;
using testjson::as_object;
using testjson::JsonObject;
using testjson::JsonParser;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

TEST(Histogram, BucketMathCoversSignedEdges) {
  EXPECT_EQ(histogram_bucket(0), 64);
  EXPECT_EQ(histogram_bucket(1), 65);
  EXPECT_EQ(histogram_bucket(2), 66);
  EXPECT_EQ(histogram_bucket(3), 66);
  EXPECT_EQ(histogram_bucket(4), 67);
  EXPECT_EQ(histogram_bucket(-1), 63);
  EXPECT_EQ(histogram_bucket(-2), 62);
  EXPECT_EQ(histogram_bucket(-3), 62);
  EXPECT_EQ(histogram_bucket(kMax), 127);
  EXPECT_EQ(histogram_bucket(kMin), 0);
  EXPECT_EQ(histogram_bucket(kMin + 1), 1);
  // Every probe value lies inside its own bucket's [low, high] range.
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{17},
        std::int64_t{-17}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        kMax, kMax - 1, kMin, kMin + 1, kMin / 2}) {
    const int b = histogram_bucket(v);
    ASSERT_GE(b, 0) << v;
    ASSERT_LT(b, kHistogramBuckets) << v;
    EXPECT_LE(histogram_bucket_low(b), v) << "bucket " << b;
    EXPECT_GE(histogram_bucket_high(b), v) << "bucket " << b;
  }
}

TEST(Histogram, BucketRangesPartitionTheInt64Line) {
  EXPECT_EQ(histogram_bucket_low(0), kMin);
  EXPECT_EQ(histogram_bucket_high(kHistogramBuckets - 1), kMax);
  for (int b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_LE(histogram_bucket_low(b), histogram_bucket_high(b)) << b;
    if (b + 1 < kHistogramBuckets) {
      EXPECT_EQ(histogram_bucket_high(b) + 1, histogram_bucket_low(b + 1))
          << b;
    }
  }
}

TEST(Histogram, RecordTracksCountSumAndExtremes) {
  Histogram h;
  for (const std::int64_t v : {std::int64_t{5}, std::int64_t{-3},
                               std::int64_t{100}, std::int64_t{0}})
    h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 102);
  EXPECT_EQ(s.min, -3);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.mean(), 102.0 / 4.0);
}

TEST(Histogram, EmptySnapshotIsAllZeros) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.quantile(0.5), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, QuantilesAreMonotoneAndClampedToObservedRange) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  const std::int64_t p50 = s.p50();
  const std::int64_t p95 = s.p95();
  const std::int64_t p99 = s.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  // The log-2 layout guarantees at most one power-of-two of estimate error:
  // the true median 500 lives in bucket [512,1023], so the clamped midpoint
  // must land within that factor-of-two band.
  EXPECT_GE(p50, 256);
  EXPECT_LE(p50, 1000);
}

TEST(Histogram, QuantileOfConstantSeriesIsExact) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.record(7);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.p50(), 7);
  EXPECT_EQ(s.p95(), 7);
  EXPECT_EQ(s.p99(), 7);
}

TEST(Histogram, PathologicalExtremesSurviveRecordAndQuantile) {
  Histogram h;
  h.record(kMin);
  h.record(kMax);
  h.record(0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, kMin);
  EXPECT_EQ(s.max, kMax);
  EXPECT_EQ(s.quantile(0.0), kMin);  // rank 1 lands in the kMin bucket
  // The top value's estimate is the top bucket's midpoint, clamped into
  // the observed range.
  EXPECT_GE(s.quantile(1.0), histogram_bucket_low(kHistogramBuckets - 1));
  EXPECT_LE(s.quantile(1.0), kMax);
}

// An overflowing sum wraps the same way in the plain snapshot (record and
// merge) as in the atomic histogram, whose fetch_add wraps by definition.
TEST(Histogram, SumOverflowWrapsAlikeInSnapshotAndAtomic) {
  HistogramSnapshot plain;
  plain.record(kMax);
  plain.record(kMax);
  Histogram atomic;
  atomic.record(kMax);
  atomic.record(kMax);
  EXPECT_EQ(plain.sum, atomic.snapshot().sum);
  EXPECT_EQ(plain.sum, -2);  // 2 * (2^63 - 1) mod 2^64
  HistogramSnapshot merged = plain;
  merged.merge(plain);
  atomic.merge(plain);
  EXPECT_EQ(merged.sum, atomic.snapshot().sum);
}

TEST(Histogram, MergeMatchesRecordingIntoOne) {
  Histogram a, b, combined;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v =
        static_cast<std::int64_t>(rng()) >> (i % 32);  // mixed magnitudes
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot ref = combined.snapshot();
  EXPECT_EQ(merged.count, ref.count);
  EXPECT_EQ(merged.sum, ref.sum);
  EXPECT_EQ(merged.min, ref.min);
  EXPECT_EQ(merged.max, ref.max);
  EXPECT_EQ(merged.buckets, ref.buckets);
  EXPECT_EQ(merged.p99(), ref.p99());
}

TEST(Histogram, MergeWithEmptyKeepsExtremes) {
  Histogram a;
  a.record(-5);
  a.record(9);
  HistogramSnapshot s = a.snapshot();
  s.merge(HistogramSnapshot{});
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, -5);
  EXPECT_EQ(s.max, 9);
  HistogramSnapshot empty;
  empty.merge(a.snapshot());
  EXPECT_EQ(empty.min, -5);
  EXPECT_EQ(empty.max, 9);
}

TEST(Histogram, SnapshotJsonIsParseableWithAllKeys) {
  Histogram h;
  h.record(10);
  h.record(-2);
  const std::string json = h.snapshot().to_json();
  JsonParser parser(json);
  const auto doc = parser.parse();
  const JsonObject& o = as_object(*doc);
  EXPECT_EQ(as_number(*o.at("count")), 2.0);
  EXPECT_EQ(as_number(*o.at("sum")), 8.0);
  EXPECT_EQ(as_number(*o.at("min")), -2.0);
  EXPECT_EQ(as_number(*o.at("max")), 10.0);
  EXPECT_DOUBLE_EQ(as_number(*o.at("mean")), 4.0);
  EXPECT_TRUE(o.count("p50") && o.count("p95") && o.count("p99"));
}

TEST(Histogram, ConcurrentRecordMergeSnapshotMatchesSerialReference) {
  // Property test for the lock-free path: several writer threads hammer one
  // shared histogram (and mirror every value into a private one) while a
  // reader thread concurrently snapshots and merges. After the join, the
  // shared histogram, the merge of the private ones, and a serial replay
  // must agree field for field.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram shared;
  std::vector<Histogram> privates(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + static_cast<unsigned>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // Signed values across many buckets, including both tails.
        const std::int64_t v = static_cast<std::int64_t>(rng());
        shared.record(v);
        privates[static_cast<std::size_t>(t)].record(v);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const HistogramSnapshot s = shared.snapshot();
      // Raced snapshots make no cross-field promise, but can never exceed
      // the total work and quantiles must stay in the bucket range.
      EXPECT_LE(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
      (void)s.p99();
    }
  });
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  Histogram serial;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + static_cast<unsigned>(t));
    for (int i = 0; i < kPerThread; ++i)
      serial.record(static_cast<std::int64_t>(rng()));
  }
  const HistogramSnapshot ref = serial.snapshot();
  const HistogramSnapshot got = shared.snapshot();
  EXPECT_EQ(got.count, ref.count);
  EXPECT_EQ(got.sum, ref.sum);
  EXPECT_EQ(got.min, ref.min);
  EXPECT_EQ(got.max, ref.max);
  EXPECT_EQ(got.buckets, ref.buckets);
  HistogramSnapshot merged;
  for (const Histogram& p : privates) merged.merge(p.snapshot());
  EXPECT_EQ(merged.count, ref.count);
  EXPECT_EQ(merged.sum, ref.sum);
  EXPECT_EQ(merged.buckets, ref.buckets);
}

TEST(Histogram, LocalBatchRecordThenMergeMatchesDirectRecording) {
  // The hot-seam batching pattern (FM move gains): plain records into a
  // local HistogramSnapshot, one Histogram::merge per pass. The result
  // must be indistinguishable from recording every value directly.
  Histogram direct, batched;
  HistogramSnapshot batch;
  for (std::int64_t v = -50; v <= 50; ++v) {
    direct.record(v * v * (v % 2 == 0 ? 1 : -1));
    batch.record(v * v * (v % 2 == 0 ? 1 : -1));
  }
  batched.merge(batch);
  batched.merge(HistogramSnapshot{});  // empty batch is a no-op
  const HistogramSnapshot a = direct.snapshot();
  const HistogramSnapshot b = batched.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, RegistryLookupIsStableAndResetClears) {
  Registry reg;
  Histogram& h = reg.histogram("comm.allgather.call_ns");
  EXPECT_EQ(&h, &reg.histogram("comm.allgather.call_ns"));
  h.record(3);
  ASSERT_EQ(reg.histograms().count("comm.allgather.call_ns"), 1u);
  EXPECT_EQ(reg.histograms().at("comm.allgather.call_ns").count, 1u);
  reg.reset();
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(Gauge, SetAddAndValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
  g.set(7);  // last-value-wins overwrites
  EXPECT_EQ(g.value(), 7);
}

TEST(Gauge, RegistrySnapshotSeesLatestValues) {
  Registry reg;
  reg.gauge("epoch.current").set(3);
  reg.gauge("epoch.current").set(5);
  reg.gauge("queue.depth").add(2);
  const auto gauges = reg.gauges();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges.at("epoch.current"), 5);
  EXPECT_EQ(gauges.at("queue.depth"), 2);
}

TEST(CachedHistogramSwap, HandleFollowsScopedRegistry) {
  // Same registry-swap discipline as CachedCounter: the cached entry must
  // re-resolve when a ScopedRegistry injects a different registry, and must
  // never write into the departed registry's storage.
  CachedHistogram cached("fm.move_gain");
  Registry outer;
  ScopedRegistry outer_scope(outer);
  cached.record(1);
  {
    Registry inner;
    ScopedRegistry inner_scope(inner);
    cached.record(2);
    cached.record(3);
    EXPECT_EQ(inner.histograms().at("fm.move_gain").count, 2u);
  }
  cached.record(4);
  const HistogramSnapshot s = outer.histograms().at("fm.move_gain");
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 4);
}

}  // namespace
}  // namespace hgr::obs
