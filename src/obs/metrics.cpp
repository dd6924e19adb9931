#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace hgr::obs {

namespace {

/// floor(log2(x)) for x >= 1.
int log2_floor(std::uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(x);
#else
  int e = 0;
  while (x >>= 1) ++e;
  return e;
#endif
}

void atomic_max(std::atomic<std::int64_t>& cell, std::int64_t v) {
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<std::int64_t>& cell, std::int64_t v) {
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (v < cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Two's-complement wrapping add: the sum the atomic Histogram keeps (its
/// fetch_add wraps by definition), without signed-overflow UB.
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

}  // namespace

int histogram_bucket(std::int64_t value) {
  if (value == 0) return 64;
  if (value > 0) return 65 + log2_floor(static_cast<std::uint64_t>(value));
  // value < 0: mirror by magnitude; INT64_MIN's magnitude (2^63) must not
  // be negated through int64, so go through uint64 two's complement.
  const std::uint64_t mag = ~static_cast<std::uint64_t>(value) + 1;
  return 63 - log2_floor(mag);
}

std::int64_t histogram_bucket_low(int bucket) {
  if (bucket == 64) return 0;
  if (bucket > 64) return std::int64_t{1} << (bucket - 65);
  // Negative side: bucket 63-e covers [-(2^(e+1)-1), -2^e]; e = 63-bucket.
  const int e = 63 - bucket;
  if (e == 63) return INT64_MIN;      // single-value bucket for -2^63
  if (e == 62) return INT64_MIN + 1;  // -(2^63-1) without the 2^63 overflow
  return -((std::int64_t{1} << (e + 1)) - 1);
}

std::int64_t histogram_bucket_high(int bucket) {
  if (bucket == 64) return 0;
  if (bucket > 64) {
    const int e = bucket - 65;
    if (e == 62) return INT64_MAX;  // top bucket saturates
    return (std::int64_t{1} << (e + 1)) - 1;
  }
  const int e = 63 - bucket;
  if (e == 63) return INT64_MIN;  // negating -2^63 would overflow
  return -(std::int64_t{1} << e);
}

std::int64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value (1-based); walk buckets from the most negative.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      const std::int64_t lo = histogram_bucket_low(b);
      const std::int64_t hi = histogram_bucket_high(b);
      // Midpoint without overflow, clamped to the observed range.
      const std::int64_t mid = lo + (hi - lo) / 2;
      return std::clamp(mid, min, max);
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum = wrapping_add(sum, other.sum);
  for (int b = 0; b < kHistogramBuckets; ++b)
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
}

std::string HistogramSnapshot::to_json() const {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("count").u64(count).key("sum").i64(sum);
  w.key("min").i64(min).key("max").i64(max).key("mean").num(mean(), 6);
  w.key("p50").i64(p50()).key("p95").i64(p95()).key("p99").i64(p99());
  w.end_object();
  return out;
}

void HistogramSnapshot::record(std::int64_t value) {
  ++buckets[static_cast<std::size_t>(histogram_bucket(value))];
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum = wrapping_add(sum, value);
}

void Histogram::record(std::int64_t value) {
  const int b = histogram_bucket(value);
  buckets_[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

void Histogram::merge(const HistogramSnapshot& batch) {
  if (batch.count == 0) return;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = batch.buckets[static_cast<std::size_t>(b)];
    if (n != 0)
      buckets_[static_cast<std::size_t>(b)].fetch_add(
          n, std::memory_order_relaxed);
  }
  count_.fetch_add(batch.count, std::memory_order_relaxed);
  sum_.fetch_add(batch.sum, std::memory_order_relaxed);
  atomic_min(min_, batch.min);
  atomic_max(max_, batch.max);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int b = 0; b < kHistogramBuckets; ++b)
    s.buckets[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  if (s.count != 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace hgr::obs
