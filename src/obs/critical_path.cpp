#include "obs/critical_path.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hgr::obs {

namespace {

/// Spans retained for the trace section; long epoch sweeps drop the
/// oldest rather than growing without bound.
constexpr std::size_t kMaxRetainedSpans = 128;

struct Span {
  std::uint64_t id = 0;
  std::int64_t epoch = -1;
  bool ended = false;
  std::vector<RankPhaseSample> samples;
  CriticalPathSummary summary;
};

struct Store {
  std::mutex mutex;
  std::deque<Span> spans;
  std::uint64_t next_id = 1;
  std::int64_t epoch = -1;
  CriticalPathSummary latest;
};

Store& store() {
  static Store s;
  return s;
}

Span* find_span(Store& s, std::uint64_t id) {
  for (Span& span : s.spans)
    if (span.id == id) return &span;
  return nullptr;
}

CriticalPathSummary summarize(const Span& span) {
  CriticalPathSummary out;
  out.span_id = span.id;
  out.epoch = span.epoch;
  if (span.samples.empty()) return out;
  // Total and blocked seconds per rank.
  std::map<int, double> total, wait;
  for (const RankPhaseSample& s : span.samples) {
    total[s.rank] += s.seconds;
    wait[s.rank] += s.wait_seconds;
  }
  int crit = -1;
  double crit_seconds = -1.0;
  for (const auto& [rank, seconds] : total) {
    if (seconds > crit_seconds) {
      crit = rank;
      crit_seconds = seconds;
    }
  }
  out.critical_rank = crit;
  out.critical_seconds = crit_seconds;
  out.wait_frac = crit_seconds > 0.0 ? wait[crit] / crit_seconds : 0.0;
  // The critical rank's largest phase names the bound.
  double best = -1.0;
  for (const RankPhaseSample& s : span.samples) {
    if (s.rank == crit && s.seconds > best) {
      best = s.seconds;
      out.critical_phase = s.phase;
    }
  }
  out.valid = true;
  return out;
}

std::string section_json_locked(const Store& s) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("spans").begin_array();
  for (const Span& span : s.spans) {
    if (!span.ended) continue;
    const CriticalPathSummary& sum = span.summary;
    w.begin_object().key("span_id").u64(span.id).key("epoch").i64(span.epoch);
    w.key("critical_rank").i64(sum.critical_rank);
    w.key("critical_phase").str(sum.critical_phase);
    w.key("critical_seconds").num(sum.critical_seconds);
    w.key("wait_frac").num(sum.wait_frac, 6).key("ranks").begin_array();
    // Group samples by rank, ranks ascending, phases in record order.
    std::map<int, std::vector<const RankPhaseSample*>> by_rank;
    for (const RankPhaseSample& r : span.samples)
      by_rank[r.rank].push_back(&r);
    for (const auto& [rank, samples] : by_rank) {
      w.begin_object().key("rank").i64(rank).key("phases").begin_array();
      for (const RankPhaseSample* r : samples) {
        w.begin_object().key("name").str(r->phase);
        w.key("seconds").num(r->seconds);
        w.key("wait_seconds").num(r->wait_seconds).end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace

void set_current_epoch(std::int64_t epoch) {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  s.epoch = epoch;
}

std::int64_t current_epoch() {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  return s.epoch;
}

std::uint64_t begin_epoch_span() {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  Span span;
  span.id = s.next_id++;
  span.epoch = s.epoch;
  s.spans.push_back(std::move(span));
  while (s.spans.size() > kMaxRetainedSpans) s.spans.pop_front();
  return s.spans.back().id;
}

void record_rank_phase(std::uint64_t span_id, int rank,
                       std::string_view phase, double seconds,
                       double wait_seconds) {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  Span* span = find_span(s, span_id);
  if (span == nullptr) return;
  RankPhaseSample sample;
  sample.rank = rank;
  sample.phase = std::string(phase);
  sample.seconds = seconds;
  sample.wait_seconds = std::max(0.0, wait_seconds);
  span->samples.push_back(std::move(sample));
}

void end_epoch_span(std::uint64_t span_id) {
  Store& s = store();
  std::string section;
  {
    std::lock_guard lock(s.mutex);
    Span* span = find_span(s, span_id);
    if (span == nullptr) return;
    span->ended = true;
    span->summary = summarize(*span);
    s.latest = span->summary;
    section = section_json_locked(s);
  }
  // Publish outside the store lock (the registry has its own mutex).
  global_registry().set_section("critical_path", std::move(section));
}

CriticalPathSummary latest_critical_path() {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  return s.latest;
}

std::string critical_path_to_json() {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  return section_json_locked(s);
}

void reset_critical_path() {
  Store& s = store();
  std::lock_guard lock(s.mutex);
  s.spans.clear();
  s.latest = CriticalPathSummary{};
  s.epoch = -1;
}

}  // namespace hgr::obs
