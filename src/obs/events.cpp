#include "obs/events.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "obs/json.hpp"

namespace hgr::obs {

namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// One slot of a ring buffer. Every field is an atomic so a snapshot racing
// a wrapping writer is well-defined (TSan-clean); `stamp` is the 1-based
// index of the event occupying the slot, used to detect mid-overwrite
// slots (stamp mismatch -> skip).
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<std::uint64_t> arg{kNoEventArg};
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint8_t> type{0};
  std::atomic<int> rank{-1};
};

class ThreadBuffer {
 public:
  ThreadBuffer(std::uint32_t tid, std::size_t capacity, std::uint64_t epoch)
      : tid_(tid), epoch_(epoch), mask_(capacity - 1), slots_(capacity) {}

  void push(const char* name, const char* category, EventType type,
            std::uint64_t ts_ns, int rank, std::uint64_t arg) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[static_cast<std::size_t>(h) & mask_];
    s.stamp.store(0, std::memory_order_release);  // invalidate for readers
    s.name.store(name, std::memory_order_relaxed);
    s.category.store(category, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.type.store(static_cast<std::uint8_t>(type), std::memory_order_relaxed);
    s.rank.store(rank, std::memory_order_relaxed);
    s.stamp.store(h + 1, std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  void snapshot_into(std::vector<Event>& out, std::uint64_t& dropped) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t begin = h > cap ? h - cap : 0;
    dropped += begin;
    for (std::uint64_t i = begin; i < h; ++i) {
      const Slot& s = slots_[static_cast<std::size_t>(i) & mask_];
      Event e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.category = s.category.load(std::memory_order_relaxed);
      e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      e.arg = s.arg.load(std::memory_order_relaxed);
      const std::uint8_t t = s.type.load(std::memory_order_relaxed);
      e.rank = s.rank.load(std::memory_order_relaxed);
      e.tid = tid_;
      // A concurrent writer wrapping into this slot invalidates the stamp
      // before touching the fields, so a matching stamp read *after* the
      // fields means they belong together.
      if (s.stamp.load(std::memory_order_acquire) != i + 1 ||
          e.name == nullptr || t > 2) {
        ++dropped;
        continue;
      }
      e.type = static_cast<EventType>(t);
      out.push_back(e);
    }
  }

  std::uint64_t epoch() const { return epoch_; }

 private:
  std::uint32_t tid_;
  std::uint64_t epoch_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
};

struct EventLog {
  std::mutex mutex;
  // Buffers are never freed while the process lives: a writer may hold a
  // raw pointer across a reset. reset_events() bumps `epoch` instead;
  // stale-epoch buffers are excluded from snapshots and writers re-register
  // on their next emit.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;               // guarded by mutex
  std::size_t capacity = kDefaultCapacity;  // guarded by mutex
  std::atomic<std::uint64_t> epoch{1};
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> t0_ns{0};
};

EventLog& event_log() {
  static EventLog log;
  return log;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_epoch = 0;
thread_local int tl_rank = -1;

}  // namespace

bool events_enabled() {
  return event_log().enabled.load(std::memory_order_relaxed);
}

void set_events_enabled(bool on) {
  EventLog& log = event_log();
  if (on) {
    std::uint64_t expected = 0;
    log.t0_ns.compare_exchange_strong(expected, monotonic_ns(),
                                      std::memory_order_acq_rel);
  }
  log.enabled.store(on, std::memory_order_release);
}

void set_thread_rank(int rank) { tl_rank = rank; }

const char* intern_event_name(std::string_view name) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> names;
  std::lock_guard lock(mutex);
  const auto it = names.find(name);
  if (it != names.end()) return it->c_str();
  return names.emplace(name).first->c_str();
}

std::uint64_t event_clock_ns() {
  const std::uint64_t t0 = event_log().t0_ns.load(std::memory_order_acquire);
  if (t0 == 0) return 0;
  return monotonic_ns() - t0;
}

void emit_event(const char* name, const char* category, EventType type,
                std::uint64_t arg) {
  EventLog& log = event_log();
  if (!log.enabled.load(std::memory_order_relaxed)) return;
  const std::uint64_t epoch = log.epoch.load(std::memory_order_acquire);
  if (tl_buffer == nullptr || tl_epoch != epoch) {
    std::lock_guard lock(log.mutex);
    log.buffers.push_back(
        std::make_unique<ThreadBuffer>(log.next_tid++, log.capacity, epoch));
    tl_buffer = log.buffers.back().get();
    tl_epoch = epoch;
  }
  tl_buffer->push(name, category, type, event_clock_ns(), tl_rank, arg);
}

EventsSnapshot snapshot_events() {
  EventLog& log = event_log();
  EventsSnapshot snap;
  std::lock_guard lock(log.mutex);
  const std::uint64_t epoch = log.epoch.load(std::memory_order_acquire);
  for (const auto& buf : log.buffers) {
    if (buf->epoch() != epoch) continue;
    buf->snapshot_into(snap.events, snap.dropped);
  }
  return snap;
}

void reset_events() {
  EventLog& log = event_log();
  std::lock_guard lock(log.mutex);
  log.epoch.fetch_add(1, std::memory_order_acq_rel);
}

void set_event_ring_capacity(std::size_t capacity) {
  EventLog& log = event_log();
  std::lock_guard lock(log.mutex);
  log.capacity = round_up_pow2(std::max<std::size_t>(capacity, 2));
}

namespace {

// Track ids: rank threads share one track per rank (ranks run on fresh
// threads each Comm::run, but logically continue the same timeline);
// non-rank threads get a high track id from their buffer tid.
std::uint32_t track_of(const Event& e) {
  return e.rank >= 0 ? static_cast<std::uint32_t>(e.rank)
                     : 100000 + e.tid;
}

}  // namespace

std::string chrome_trace_json() {
  EventsSnapshot snap = snapshot_events();
  // Stable sort by timestamp: events within one thread's buffer are already
  // in emission order, so ties (nested scopes opened in the same tick)
  // keep their begin/end nesting.
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  std::map<std::uint32_t, std::string> track_names;
  for (const Event& e : snap.events)
    track_names.try_emplace(track_of(e),
                            e.rank >= 0 ? "rank " + std::to_string(e.rank)
                                        : "thread " + std::to_string(e.tid));

  std::string out;
  JsonWriter w(out);
  w.begin_object().key("displayTimeUnit").str("ms");
  w.key("traceEvents").begin_array();
  // Metadata record; the caller fills "args" and closes both objects.
  const auto metadata = [&w](std::uint32_t tid, const char* name) -> auto& {
    w.begin_object().key("ph").str("M").key("pid").u64(0).key("tid").u64(tid);
    return w.key("name").str(name).key("args").begin_object();
  };
  metadata(0, "process_name").key("name").str("hgr").end_object().end_object();
  for (const auto& [track, name] : track_names) {
    metadata(track, "thread_name").key("name").str(name);
    w.end_object().end_object();
    metadata(track, "thread_sort_index").key("sort_index").u64(track);
    w.end_object().end_object();
  }
  // Opens one event object; the caller adds optional fields and closes it.
  const auto event = [&w](const Event& e, char ph, std::uint64_t ts_ns) {
    w.begin_object().key("name").str(e.name);
    w.key("cat").str(e.category != nullptr ? e.category : "event");
    w.key("ph").str(std::string_view(&ph, 1)).key("pid").u64(0);
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f", static_cast<double>(ts_ns) / 1e3);
    w.key("tid").u64(track_of(e)).key("ts").raw(ts);
  };
  // Spans left open by an exception or degradation path (a faulted rank
  // unwinds without its span destructors reaching the ring in order, or
  // the process exports mid-phase). Unterminated B events make viewers
  // drop the whole tail of the track, so synthesize matching E events at
  // the capture's last timestamp instead of losing them.
  std::map<std::uint32_t, std::vector<const Event*>> open_spans;
  std::uint64_t max_ts = 0;
  for (const Event& e : snap.events) {
    event(e, e.type == EventType::kBegin ? 'B'
             : e.type == EventType::kEnd ? 'E'
                                         : 'i',
          e.ts_ns);
    if (e.type == EventType::kInstant) w.key("s").str("t");
    if (e.arg != kNoEventArg)
      w.key("args").begin_object().key("bytes").u64(e.arg).end_object();
    w.end_object();
    max_ts = std::max(max_ts, e.ts_ns);
    if (e.type == EventType::kBegin) {
      open_spans[track_of(e)].push_back(&e);
    } else if (e.type == EventType::kEnd) {
      std::vector<const Event*>& stack = open_spans[track_of(e)];
      if (!stack.empty()) stack.pop_back();
    }
  }
  std::uint64_t flushed = 0;
  for (const auto& [track, stack] : open_spans) {
    // Innermost first: E events close spans in strict nesting order.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it, ++flushed) {
      event(**it, 'E', max_ts);
      w.end_object();
    }
  }
  w.end_array().key("otherData").begin_object();
  w.key("droppedEvents").u64(snap.dropped).key("flushedSpans").u64(flushed);
  w.end_object().end_object();
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace hgr::obs
