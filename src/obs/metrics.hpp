// Metric types beyond counters: log-bucketed histograms and gauges.
//
// The trace layer's counters answer "how many / how much total", which is
// the wrong shape for latency: a collective whose p99 is 50x its median
// looks identical to a uniform one in a sum. Histogram keeps a fixed
// 128-bucket base-2 log layout over the full signed 64-bit range (FM move
// gains are signed), so recording is a handful of relaxed atomic ops —
// cheap enough for per-call comm latency and per-move gain distributions —
// and snapshots are mergeable across threads and ranks by bucket-wise
// addition. Percentiles (p50/p95/p99) come from a bucket walk at export
// time, never on the hot path.
//
// Gauge is a last-value-wins signed level (current epoch, queue depth):
// the one metric shape counters cannot fake, since they only go up.
//
// Registration mirrors counters: obs::histogram(name)/obs::gauge(name)
// live in the same Registry (trace.hpp) and are emitted in the
// hgr-trace-v2 export under "histograms"/"gauges". Hot loops use
// obs::CachedHistogram (trace.hpp), the cached handle for histograms.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace hgr::obs {

/// Bucket count of the fixed log-2 layout: bucket 64 holds exactly 0,
/// buckets 65..127 hold positive magnitudes [2^e, 2^(e+1)), buckets 63..0
/// mirror them for negative values. Every int64 maps to exactly one bucket.
inline constexpr int kHistogramBuckets = 128;

/// The bucket `value` lands in (always in [0, kHistogramBuckets)).
int histogram_bucket(std::int64_t value);

/// Inclusive lower bound of `bucket`'s value range.
std::int64_t histogram_bucket_low(int bucket);

/// Inclusive upper bound of `bucket`'s value range.
std::int64_t histogram_bucket_high(int bucket);

/// Immutable copy of a histogram's state; mergeable (bucket-wise add) so
/// per-thread or per-rank histograms can be folded into one distribution.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when count == 0
  std::int64_t max = 0;  // 0 when count == 0
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at quantile `q` in [0, 1], estimated as the midpoint of the
  /// bucket holding the q-th recorded value, clamped to [min, max] so the
  /// estimate never leaves the observed range. 0 when empty.
  std::int64_t quantile(double q) const;
  std::int64_t p50() const { return quantile(0.50); }
  std::int64_t p95() const { return quantile(0.95); }
  std::int64_t p99() const { return quantile(0.99); }

  /// Fold `other` into this snapshot.
  void merge(const HistogramSnapshot& other);

  /// Plain (non-atomic, single-owner) record. A snapshot doubles as the
  /// batch accumulator for very hot single-threaded seams (per-move FM
  /// gains): record locally at a few ns per value, then fold the batch
  /// into the shared registry Histogram once per pass via
  /// Histogram::merge().
  void record(std::int64_t value);

  /// JSON object: {"count":..,"sum":..,"min":..,"max":..,"mean":..,
  /// "p50":..,"p95":..,"p99":..} (the hgr-trace-v2 per-histogram value).
  std::string to_json() const;
};

/// Lock-free log-bucketed histogram over signed 64-bit values.
///
/// record() is wait-free except for the min/max CAS loops (which contend
/// only while the running extremes are actually moving) and uses relaxed
/// atomics throughout: each recorded value is independent, and snapshot()
/// makes no cross-field consistency promise beyond "every completed record
/// is eventually visible" — a snapshot raced with writers may be mid-update
/// (e.g. count ahead of sum), which is fine for monitoring output and is
/// exactly the counter semantics the rest of the trace layer already has.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t value);

  /// Fold a locally accumulated batch into this histogram (bucket-wise
  /// atomic adds — one call amortizes an entire pass of records).
  void merge(const HistogramSnapshot& batch);

  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// Last-value-wins signed level. set() overwrites, add() adjusts; both are
/// relaxed atomics, safe from any thread.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

}  // namespace hgr::obs
