// Per-rank event timeline: the second half of the observability layer.
//
// The phase tree (trace.hpp) aggregates wall time; it answers "where did
// the run spend its time" but not "what did rank 3 do while rank 0 was
// refining". This module records *events* — begin/end spans and instants —
// into lock-free per-thread ring buffers with rank and thread attribution,
// and exports them as Chrome/Perfetto trace JSON (`chrome://tracing`,
// https://ui.perfetto.dev). That is what makes per-rank skew and comm wait
// time visible: one timeline track per rank, comm events on each.
//
// Design constraints:
//  - Recording must be cheap enough to leave compiled in: a disabled-check
//    is one relaxed atomic load; an enabled emit is a handful of relaxed
//    atomic stores into a thread-owned slot. No locks on the hot path (a
//    mutex is taken once per thread per capture to register its buffer).
//  - Buffers are bounded rings: when a thread emits more than the capacity,
//    the oldest events are overwritten and counted as dropped.
//  - Reads (snapshot/export) may run concurrently with writers. Every slot
//    field is an atomic and carries a stamp; a slot whose stamp does not
//    match the expected event index is being overwritten and is skipped.
//    Torn slots are therefore filtered, never invented.
//  - Event names are interned `const char*`s so slots stay POD-sized.
//
// Rank attribution: the comm runtime calls set_thread_rank(r) on each rank
// thread; events carry that rank and the exporter groups them into one
// timeline track per rank (non-rank threads get their own tracks).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hgr::obs {

enum class EventType : std::uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

/// Sentinel for "no payload" on an event.
inline constexpr std::uint64_t kNoEventArg = ~std::uint64_t{0};

struct Event {
  const char* name = nullptr;      // interned; stable for process lifetime
  const char* category = nullptr;  // "phase", "comm", ...
  std::uint64_t ts_ns = 0;         // nanoseconds since the capture epoch
  std::uint64_t arg = kNoEventArg; // optional payload (e.g. message bytes)
  EventType type = EventType::kInstant;
  int rank = -1;                   // -1: not a rank thread
  std::uint32_t tid = 0;           // stable per-thread id within the capture
};

/// Global capture switch. Off by default; emit calls are near-free when
/// off. Enabling (re)starts the capture clock if it was never started.
bool events_enabled();
void set_events_enabled(bool on);

/// Rank attribution for the calling thread (-1 clears). Cheap; the comm
/// runtime calls this unconditionally on every rank thread.
void set_thread_rank(int rank);

/// Intern `name` into stable storage; returns a pointer usable as an event
/// name for the rest of the process. Takes a lock — intern once, not per
/// event.
const char* intern_event_name(std::string_view name);

/// Record one event on the calling thread's ring buffer. `name` and
/// `category` must be string literals or interned pointers. No-op when
/// capture is disabled.
void emit_event(const char* name, const char* category, EventType type,
                std::uint64_t arg = kNoEventArg);

inline void emit_begin(const char* name, const char* category = "phase") {
  emit_event(name, category, EventType::kBegin);
}
inline void emit_end(const char* name, const char* category = "phase") {
  emit_event(name, category, EventType::kEnd);
}
inline void emit_instant(const char* name, const char* category = "phase",
                         std::uint64_t arg = kNoEventArg) {
  emit_event(name, category, EventType::kInstant, arg);
}

struct EventsSnapshot {
  /// Concatenation of the live per-thread buffers, each in emission order.
  std::vector<Event> events;
  /// Events overwritten by ring wraparound (plus any torn slots skipped).
  std::uint64_t dropped = 0;
};

/// Copy out everything currently captured. Safe while writers are active;
/// slots raced by a concurrent wrap are skipped, not torn.
EventsSnapshot snapshot_events();

/// Discard all captured events and detach every thread buffer (threads
/// re-register on their next emit). Does not change the enabled flag.
void reset_events();

/// Nanoseconds since the capture epoch (the first enable), monotonic.
std::uint64_t event_clock_ns();

/// Per-thread ring capacity for buffers created after this call; rounded
/// up to a power of two. Intended for tests (small rings force wraparound).
void set_event_ring_capacity(std::size_t capacity);

/// Serialize the capture in Chrome trace-event format: an object with a
/// "traceEvents" array, loadable in Perfetto / chrome://tracing. One track
/// (tid) per rank, named "rank N"; non-rank threads get "thread N" tracks.
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace hgr::obs
