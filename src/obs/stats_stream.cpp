#include "obs/stats_stream.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <mutex>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hgr::obs {

namespace {

struct StreamState {
  std::mutex mutex;
  std::deque<StatsSnapshot> ring;
  std::size_t capacity = 256;
  std::uint64_t next_seq = 0;
  std::uint64_t dropped = 0;
  std::uint64_t t0_ns = 0;
  std::string dump_path;
};

StreamState& stream_state() {
  static StreamState state;
  return state;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_dump_pending{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string StatsSnapshot::to_json() const {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("schema").str("hgr-stats-v1");
  w.key("seq").u64(seq).key("ts_ns").u64(ts_ns).key("phase").str(phase);
  w.key("seconds").num(seconds).key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).u64(value);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.key(name).i64(value);
  w.end_object().end_object();
  return out;
}

void set_stats_stream_enabled(bool on) {
  {
    StreamState& state = stream_state();
    std::lock_guard lock(state.mutex);
    if (on && !g_enabled.load(std::memory_order_relaxed))
      state.t0_ns = now_ns();
    g_enabled.store(on, std::memory_order_release);
  }
  // Closing the stream services any dump still pending: a SIGUSR1 that
  // arrived while the process idled between phases (the common daemon
  // state) must not be dropped on exit. Outside the lock —
  // flush_pending_stats_dump takes it again.
  if (!on) flush_pending_stats_dump();
}

bool stats_stream_enabled() {
  return g_enabled.load(std::memory_order_acquire);
}

void set_stats_ring_capacity(std::size_t n) {
  StreamState& state = stream_state();
  std::lock_guard lock(state.mutex);
  state.capacity = n == 0 ? 1 : n;
  while (state.ring.size() > state.capacity) {
    state.ring.pop_front();
    ++state.dropped;
  }
}

void set_stats_stream_path(std::string path) {
  StreamState& state = stream_state();
  std::lock_guard lock(state.mutex);
  state.dump_path = std::move(path);
}

void stats_stream_on_phase_close(Registry& reg, const std::string& phase,
                                 double seconds) {
  if (!stats_stream_enabled()) return;
  // Snapshot the registry before taking the stream mutex (independent
  // locks; keeps the ordering trivially acyclic).
  StatsSnapshot sample;
  sample.phase = phase;
  sample.seconds = seconds;
  sample.counters = reg.counters();
  sample.gauges = reg.gauges();
  std::string flush_to;
  {
    StreamState& state = stream_state();
    std::lock_guard lock(state.mutex);
    sample.seq = state.next_seq++;
    sample.ts_ns = now_ns() - state.t0_ns;
    state.ring.push_back(std::move(sample));
    while (state.ring.size() > state.capacity) {
      state.ring.pop_front();
      ++state.dropped;
    }
    if (g_dump_pending.load(std::memory_order_acquire) &&
        !state.dump_path.empty()) {
      g_dump_pending.store(false, std::memory_order_release);
      flush_to = state.dump_path;
    }
  }
  if (!flush_to.empty()) write_stats_stream(flush_to);
}

std::vector<StatsSnapshot> stats_stream_snapshot() {
  StreamState& state = stream_state();
  std::lock_guard lock(state.mutex);
  return {state.ring.begin(), state.ring.end()};
}

std::uint64_t stats_stream_dropped() {
  StreamState& state = stream_state();
  std::lock_guard lock(state.mutex);
  return state.dropped;
}

void reset_stats_stream() {
  StreamState& state = stream_state();
  std::lock_guard lock(state.mutex);
  state.ring.clear();
  state.next_seq = 0;
  state.dropped = 0;
  state.t0_ns = now_ns();
  g_dump_pending.store(false, std::memory_order_release);
}

void request_stats_dump() {
  // Async-signal-safe by design: one atomic store, no locks, no
  // allocation. The actual write happens at the next sample point.
  g_dump_pending.store(true, std::memory_order_release);
}

bool stats_dump_pending() {
  return g_dump_pending.load(std::memory_order_acquire);
}

bool flush_pending_stats_dump() {
  if (!g_dump_pending.load(std::memory_order_acquire)) return false;
  std::string flush_to;
  {
    StreamState& state = stream_state();
    std::lock_guard lock(state.mutex);
    if (!g_dump_pending.load(std::memory_order_acquire) ||
        state.dump_path.empty())
      return false;
    g_dump_pending.store(false, std::memory_order_release);
    flush_to = state.dump_path;
  }
  // write_stats_stream re-takes the stream mutex to snapshot the ring, so
  // the call must sit outside the locked section above.
  return write_stats_stream(flush_to);
}

bool write_stats_stream(const std::string& path) {
  const std::vector<StatsSnapshot> samples = stats_stream_snapshot();
  std::ofstream out(path);
  if (!out) return false;
  for (const StatsSnapshot& s : samples) out << s.to_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace hgr::obs
