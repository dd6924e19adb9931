// Phase-level observability: hierarchical trace scopes, named monotonic
// counters, and a JSON exporter.
//
// The paper's evaluation is a measurement story (total cost alpha*comm +
// mig, partitioner run time broken down by phase), so instrumentation is a
// first-class subsystem: every pipeline stage opens a TraceScope and bumps
// counters, and any driver (hgr_cli --trace-json=, the bench binaries) can
// dump the whole run as machine-readable JSON. See docs/OBSERVABILITY.md
// for the schema and the counter naming convention.
//
// Threading model: counters are atomics and may be bumped from any thread
// (the parallel runtime's rank threads do). The phase tree keeps one scope
// stack per thread; scopes opened on different threads with the same name
// under the same parent merge into one node (seconds summed, calls
// counted), so per-rank instrumentation aggregates naturally.
//
// The global registry is injectable: tests isolate themselves with
//   obs::Registry reg;
//   obs::ScopedRegistry scope(reg);
// which routes obs::counter()/TraceScope to `reg` until scope exits.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace hgr::obs {

/// Immutable copy of the phase tree, safe to inspect while the live
/// registry keeps accumulating.
struct PhaseSnapshot {
  std::string name;
  double seconds = 0.0;       // total wall time across all calls
  std::uint64_t calls = 0;    // completed scopes merged into this node
  /// Longest / shortest single call merged into this node. Same-named
  /// scopes merge across threads (the parallel runtime's rank threads
  /// do), so `seconds` alone hides skew: p ranks timing the same phase
  /// sum to ~p× the wall time. max_seconds is the representative per-call
  /// (per-rank) wall time and max-min is the skew.
  double max_seconds = 0.0;
  double min_seconds = 0.0;   // 0 when calls == 0
  std::vector<PhaseSnapshot> children;
};

/// Find a node by path from `root` (children only, not root itself).
/// Returns nullptr if any path element is missing.
const PhaseSnapshot* find_phase(const PhaseSnapshot& root,
                                std::initializer_list<std::string_view> path);

/// Holds one run's phase tree and counters.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Named monotonic counter; created on first use. The returned atomic
  /// stays valid for the registry's lifetime.
  std::atomic<std::uint64_t>& counter(std::string_view name);

  /// Current value, 0 if the counter was never touched.
  std::uint64_t counter_value(std::string_view name) const;

  /// Snapshot of all counters.
  std::map<std::string, std::uint64_t> counters() const;

  /// Named log-bucketed histogram; created on first use. The returned
  /// reference stays valid for the registry's lifetime; record() is
  /// lock-free (metrics.hpp), only this lookup takes the registry mutex.
  Histogram& histogram(std::string_view name);

  /// Named gauge (last-value-wins level); created on first use.
  Gauge& gauge(std::string_view name);

  /// Snapshot of all histograms / gauge values.
  std::map<std::string, HistogramSnapshot> histograms() const;
  std::map<std::string, std::int64_t> gauges() const;

  /// Snapshot of the phase tree (root is a synthetic "" node whose
  /// children are the top-level phases).
  PhaseSnapshot phase_tree() const;

  /// Attach a pre-serialized JSON value under top-level key `name` in the
  /// trace export (e.g. the comm runtime's telemetry). Overwrites any
  /// previous value for the same key. `json` must be a valid JSON value.
  void set_section(std::string_view name, std::string json);

  /// All attached sections, keyed by name.
  std::map<std::string, std::string> sections() const;

  /// Unique per-registry id (never reused); lets cached counter handles
  /// detect that the global registry was swapped or recreated.
  std::uint64_t id() const { return id_; }

  /// Drop all phases, counters, histograms, gauges and sections (scope
  /// stacks must be empty).
  void reset();

  // TraceScope plumbing: open/close a phase on the calling thread's stack.
  void begin_phase(std::string_view name);
  void end_phase(double seconds);

 private:
  struct Node {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
    double max_seconds = 0.0;
    double min_seconds = 0.0;
    std::vector<std::unique_ptr<Node>> children;
  };

  template <typename T>
  using Named = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  Node* find_or_add_child(Node& parent, std::string_view name);
  template <typename T>
  T& get_or_create(Named<T>& metrics, std::string_view name);

  const std::uint64_t id_;
  mutable std::mutex mutex_;
  Node root_;
  std::map<std::thread::id, std::vector<Node*>> stacks_;
  Named<std::atomic<std::uint64_t>> counters_;
  Named<Histogram> histograms_;
  Named<Gauge> gauges_;
  std::map<std::string, std::string, std::less<>> sections_;
};

/// The process-global registry, unless one was injected.
Registry& global_registry();

/// Inject `r` as the global registry (nullptr restores the default).
/// Returns the previous override (nullptr if none).
Registry* set_global_registry(Registry* r);

/// RAII injection, for tests and scoped measurement runs.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& r) : prev_(set_global_registry(&r)) {}
  ~ScopedRegistry() { set_global_registry(prev_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

/// Shorthand: obs::counter("refine.moves") += n;
inline std::atomic<std::uint64_t>& counter(std::string_view name) {
  return global_registry().counter(name);
}

/// Shorthand: obs::histogram("comm.alltoallv.call_ns").record(ns);
/// The lookup takes the registry mutex — fine once per phase, not per
/// loop iteration (use CachedHistogram in hot loops).
inline Histogram& histogram(std::string_view name) {
  return global_registry().histogram(name);
}

/// Shorthand: obs::gauge("epoch.current").set(i);
inline Gauge& gauge(std::string_view name) {
  return global_registry().gauge(name);
}

/// Cached handle for a hot-path registry metric. The shorthand lookups
/// above take the registry mutex on every call; a cached handle resolves
/// the name once per registry and then touches the metric directly — the
/// steady-state cost is two relaxed loads. Handles are safe to share
/// across threads and survive ScopedRegistry swaps: each Registry has a
/// unique id, and a mismatch triggers re-resolution (so a stale handle
/// never touches a destroyed registry's storage).
template <typename T, T& (Registry::*Lookup)(std::string_view)>
class CachedHandle {
 public:
  explicit CachedHandle(std::string name) : name_(std::move(name)) {}
  CachedHandle(const CachedHandle&) = delete;
  CachedHandle& operator=(const CachedHandle&) = delete;

  T& get() {
    Registry& reg = global_registry();
    const Entry* e = current_.load(std::memory_order_acquire);
    if (e == nullptr || e->registry_id != reg.id()) e = resolve(reg);
    return *e->metric;
  }

 private:
  // An Entry is immutable after publication; stale entries are kept alive
  // (owned_) so concurrent readers never see freed memory.
  struct Entry {
    std::uint64_t registry_id;
    T* metric;
  };

  const Entry* resolve(Registry& reg) {
    std::lock_guard lock(mutex_);
    // Re-check under the lock: another thread may have resolved already.
    const Entry* e = current_.load(std::memory_order_acquire);
    if (e != nullptr && e->registry_id == reg.id()) return e;
    owned_.push_back(
        std::make_unique<Entry>(Entry{reg.id(), &(reg.*Lookup)(name_)}));
    current_.store(owned_.back().get(), std::memory_order_release);
    return owned_.back().get();
  }

  std::string name_;
  std::atomic<const Entry*> current_{nullptr};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> owned_;
};

/// Hot-path counter handle:
///   static obs::CachedCounter moves("refine.moves");  // function-local
///   moves += n;                                       // hot loop
class CachedCounter
    : public CachedHandle<std::atomic<std::uint64_t>, &Registry::counter> {
 public:
  using CachedHandle::CachedHandle;
  std::uint64_t operator+=(std::uint64_t n) {
    return get().fetch_add(n, std::memory_order_relaxed) + n;
  }
};

/// Hot-path histogram handle; record() is the lock-free metrics.hpp path:
///   static obs::CachedHistogram gains("fm.move_gain");  // function-local
///   gains.record(gain);                                 // hot loop
class CachedHistogram : public CachedHandle<Histogram, &Registry::histogram> {
 public:
  using CachedHandle::CachedHandle;
  void record(std::int64_t value) { get().record(value); }
};

/// RAII phase timer. Nest freely; same-named siblings merge. When event
/// capture is on (events.hpp), also emits begin/end timeline events.
class TraceScope {
 public:
  explicit TraceScope(std::string_view name, Registry* reg = nullptr)
      : reg_(reg != nullptr ? reg : &global_registry()) {
    reg_->begin_phase(name);
    if (events_enabled()) {
      event_name_ = intern_event_name(name);
      emit_begin(event_name_);
    }
  }
  ~TraceScope() {
    reg_->end_phase(timer_.seconds());
    if (event_name_ != nullptr) emit_end(event_name_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Registry* reg_;
  const char* event_name_ = nullptr;
  WallTimer timer_;
};

/// Serialize phases + counters + histograms + gauges as JSON (schema
/// "hgr-trace-v2"; v1 lacked the "histograms"/"gauges" keys).
std::string trace_to_json(const Registry& reg);
std::string trace_to_json();  // global registry

/// Write trace_to_json(reg) to `path`. Returns false on I/O failure.
bool write_trace_json(const std::string& path, const Registry& reg);
bool write_trace_json(const std::string& path);  // global registry

}  // namespace hgr::obs
