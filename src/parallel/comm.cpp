#include "parallel/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace hgr {

Comm::Comm(int num_ranks)
    : num_ranks_(num_ranks),
      stats_(static_cast<std::size_t>(num_ranks)),
      p2p_bytes_(static_cast<std::size_t>(num_ranks) *
                 static_cast<std::size_t>(num_ranks)),
      p2p_messages_(static_cast<std::size_t>(num_ranks) *
                    static_cast<std::size_t>(num_ranks)),
      collective_calls_(static_cast<std::size_t>(num_ranks)),
      wait_states_(std::make_unique<std::atomic<WaitState>[]>(
          static_cast<std::size_t>(num_ranks))),
      collective_epochs_(static_cast<std::size_t>(num_ranks)),
      rank_pools_(static_cast<std::size_t>(num_ranks)) {
  HGR_ASSERT(num_ranks >= 1);
  for (auto& parity : slots_) parity.resize(static_cast<std::size_t>(num_ranks));
  for (auto& parity : reduce_slots_)
    parity.resize(static_cast<std::size_t>(num_ranks));
}

void Comm::set_wait_state(int rank, WaitState state) {
  wait_states_[static_cast<std::size_t>(rank)].store(
      state, std::memory_order_release);
  progress_.fetch_add(1, std::memory_order_acq_rel);
}

Comm::ScopedWait::ScopedWait(Comm& comm, int rank, WaitState state)
    : comm_(comm), rank_(rank), event_(obs::events_enabled()) {
  comm_.set_wait_state(rank_, state);
  if (event_) obs::emit_begin("wait.barrier", "comm");
}

Comm::ScopedWait::~ScopedWait() {
  comm_.stats_[static_cast<std::size_t>(rank_)].barrier_wait_seconds +=
      timer_.seconds();
  if (event_) obs::emit_end("wait.barrier", "comm");
  comm_.set_wait_state(rank_, WaitState::kNotWaiting);
}

std::string Comm::compose_deadlock_diagnosis(double stuck_seconds) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "comm deadlock: no progress on any of %d ranks for %.2fs",
                num_ranks_, stuck_seconds);
  std::string out = head;
  int arrived = 0;
  {
    std::lock_guard lock(barrier_mutex_);
    arrived = barrier_arrived_;
  }
  for (int r = 0; r < num_ranks_; ++r) {
    char line[96];
    switch (wait_states_[static_cast<std::size_t>(r)].load(
        std::memory_order_acquire)) {
      case WaitState::kBarrier:
        std::snprintf(line, sizeof(line),
                      "\n  rank %d: barrier (%d of %d arrived)", r, arrived,
                      num_ranks_);
        break;
      case WaitState::kStalled:
        std::snprintf(line, sizeof(line),
                      "\n  rank %d: stalled (injected fault)", r);
        break;
      case WaitState::kReturned:
        std::snprintf(line, sizeof(line), "\n  rank %d: returned", r);
        break;
      default:
        std::snprintf(line, sizeof(line), "\n  rank %d: not blocked", r);
        break;
    }
    out += line;
  }
  return out;
}

void Comm::watchdog_loop() {
  std::uint64_t last_progress = progress_.load(std::memory_order_acquire);
  WallTimer stuck_timer;
  bool stuck = false;

  std::unique_lock lock(watchdog_mutex_);
  for (;;) {
    // Re-read the timeout every poll: set_deadlock_timeout may be called
    // from any thread mid-run, and the update must take effect without
    // waiting for the next run().
    const double timeout = deadlock_timeout_.load(std::memory_order_acquire);
    const auto poll = std::chrono::milliseconds(
        timeout > 0.0 ? std::clamp(
                            static_cast<long>(timeout * 1000.0 / 20.0), 1L,
                            100L)
                      : 100L);
    if (watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; }))
      return;
    if (timeout <= 0.0 || aborted_.load(std::memory_order_acquire)) {
      stuck = false;
      continue;
    }
    // Stuck: no rank runs, and at least one really waits (all-returned is
    // the normal end of a run, not a deadlock).
    bool all_blocked = true;
    bool any_waiting = false;
    for (int r = 0; r < num_ranks_ && all_blocked; ++r) {
      const WaitState w = wait_states_[static_cast<std::size_t>(r)].load(
          std::memory_order_acquire);
      all_blocked = w != WaitState::kNotWaiting;
      any_waiting = any_waiting || w == WaitState::kBarrier ||
                    w == WaitState::kStalled;
    }
    const std::uint64_t now_progress =
        progress_.load(std::memory_order_acquire);
    if (!all_blocked || !any_waiting || now_progress != last_progress) {
      stuck = false;
      last_progress = now_progress;
      continue;
    }
    if (!stuck) {
      stuck = true;
      stuck_timer.reset();
      continue;
    }
    const double stuck_seconds = stuck_timer.seconds();
    if (stuck_seconds < timeout) continue;
    deadlock_diagnosis_ = compose_deadlock_diagnosis(stuck_seconds);
    lock.unlock();
    abort_all();
    return;
  }
}

void Comm::run(const std::function<void(RankContext&)>& f) {
  WallTimer run_timer;
  for (auto& s : stats_) s = CommStats{};
  for (auto& v : p2p_bytes_) v = 0;
  for (auto& v : p2p_messages_) v = 0;
  for (auto& calls : collective_calls_) calls.fill(0);
  // Window payload blocks are kept (they are the recycled capacity); only
  // the live sizes and epochs reset.
  for (auto& parity : slots_)
    for (CollectiveSlot& slot : parity) {
      slot.bytes = 0;
      slot.counts.clear();
      slot.displs.clear();
      slot.call = kNoCall;
    }
  for (RankEpoch& epoch : collective_epochs_) epoch.value = 0;
  barrier_arrived_ = 0;
  barrier_generation_ = 0;
  aborted_.store(false, std::memory_order_relaxed);
  progress_.store(0, std::memory_order_relaxed);
  for (int r = 0; r < num_ranks_; ++r)
    wait_states_[static_cast<std::size_t>(r)].store(
        WaitState::kNotWaiting, std::memory_order_relaxed);
  {
    std::lock_guard lock(watchdog_mutex_);
    watchdog_stop_ = false;
    deadlock_diagnosis_.clear();
  }

  std::thread watchdog;
  if (deadlock_timeout() > 0.0)
    watchdog = std::thread([this] { watchdog_loop(); });

  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_ranks_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, r, &f, &errors] {
      obs::set_thread_rank(r);  // timeline events land on rank r's track
      try {
        RankContext ctx(*this, r);
        f(ctx);
        set_wait_state(r, WaitState::kReturned);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string deadlock_diagnosis;
  if (watchdog.joinable()) {
    {
      std::lock_guard lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog.join();
    std::lock_guard lock(watchdog_mutex_);
    deadlock_diagnosis = deadlock_diagnosis_;
  }
  aborted_.store(false, std::memory_order_relaxed);
  last_run_seconds_ = run_timer.seconds();

  // Fold this run into the process-global telemetry (even failed runs:
  // partial traffic is still real traffic) and refresh the "comm" section
  // of the trace export so any later JSON dump carries it.
  {
    accumulate_comm_telemetry(telemetry());
    obs::global_registry().set_section(
        "comm", comm_telemetry_snapshot().to_json());
  }

  // Rethrow the lowest-rank *original* failure; secondary CommAborted
  // unwinds (ranks woken because a peer died) only surface if no primary
  // exception was captured — and if the watchdog aborted the run, the
  // deadlock diagnosis outranks those secondary unwinds.
  std::exception_ptr fallback;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    if (!fallback) fallback = e;
    try {
      std::rethrow_exception(e);
    } catch (const CommAborted&) {
      continue;
    } catch (...) {
      throw;
    }
  }
  if (!deadlock_diagnosis.empty()) throw CommDeadlock(deadlock_diagnosis);
  if (fallback) std::rethrow_exception(fallback);
}

CommStats Comm::total_stats() const {
  CommStats total;
  for (const CommStats& s : stats_) {
    total.bytes_sent += s.bytes_sent;
    total.messages_sent += s.messages_sent;
    total.bytes_recv += s.bytes_recv;
    total.messages_recv += s.messages_recv;
    total.collectives += s.collectives;
    total.barrier_wait_seconds += s.barrier_wait_seconds;
  }
  return total;
}

CommTelemetry Comm::telemetry() const {
  CommTelemetry t;
  t.resize(num_ranks_);
  for (int r = 0; r < num_ranks_; ++r) {
    const CommStats& s = stats_[static_cast<std::size_t>(r)];
    RankCommTelemetry& rt = t.ranks[static_cast<std::size_t>(r)];
    rt.bytes_sent = s.bytes_sent;
    rt.bytes_recv = s.bytes_recv;
    rt.messages_sent = s.messages_sent;
    rt.messages_recv = s.messages_recv;
    rt.barrier_wait_seconds = s.barrier_wait_seconds;
    rt.collective_calls = collective_calls_[static_cast<std::size_t>(r)];
  }
  t.p2p_bytes = p2p_bytes_;
  t.p2p_messages = p2p_messages_;
  t.run_seconds = last_run_seconds_;
  t.runs = last_run_seconds_ > 0.0 ? 1 : 0;
  return t;
}

void Comm::maybe_inject(int rank, fault::FaultSite site) {
  const fault::FaultPlan* plan = fault_plan_.get();
  if (plan == nullptr) return;
  const std::optional<fault::FaultDecision> d = plan->check(site, rank);
  if (!d.has_value()) return;
  switch (d->kind) {
    case fault::FaultKind::kDelay:
      obs::counter("fault.delay") += 1;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(d->delay_ms));
      return;
    case fault::FaultKind::kThrow:
      obs::counter("fault.throw") += 1;
      throw fault::FaultInjected(d->description);
    case fault::FaultKind::kStall:
      obs::counter("fault.stall") += 1;
      stall_until_abort(rank);
  }
}

void Comm::stall_until_abort(int rank) {
  // Block on the barrier condvar (abort_all notifies it), publishing a
  // kStalled wait state so the watchdog counts the rank as blocked and the
  // deadlock diagnosis names the injection.
  std::unique_lock lock(barrier_mutex_);
  {
    ScopedWait waiting(*this, rank, WaitState::kStalled);
    barrier_cv_.wait(
        lock, [this] { return aborted_.load(std::memory_order_acquire); });
  }
  throw CommAborted{};
}

void Comm::abort_all() {
  aborted_.store(true, std::memory_order_release);
  // Lock the waiters' mutex before notifying so the flag cannot slip in
  // between a predicate check and the wait.
  std::lock_guard lock(barrier_mutex_);
  barrier_cv_.notify_all();
}

void Comm::barrier_wait(int rank) {
  std::unique_lock lock(barrier_mutex_);
  if (aborted_.load(std::memory_order_acquire)) throw CommAborted{};
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == num_ranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    progress_.fetch_add(1, std::memory_order_acq_rel);
    barrier_cv_.notify_all();
  } else {
    ScopedWait waiting(*this, rank, WaitState::kBarrier);
    barrier_cv_.wait(lock, [this, my_generation] {
      return barrier_generation_ != my_generation ||
             aborted_.load(std::memory_order_acquire);
    });
    if (barrier_generation_ == my_generation) throw CommAborted{};
  }
}

int RankContext::size() const { return comm_.num_ranks(); }

void RankContext::faultpoint(fault::FaultSite site) {
  comm_.maybe_inject(rank_, site);
}

const CommStats& RankContext::stats() const {
  return comm_.stats_[static_cast<std::size_t>(rank_)];
}

void RankContext::account(std::size_t bytes, std::size_t messages) {
  CommStats& s = comm_.stats_[static_cast<std::size_t>(rank_)];
  s.bytes_sent += bytes;
  s.messages_sent += messages;
}

void RankContext::account_recv(std::size_t bytes, std::size_t messages) {
  CommStats& s = comm_.stats_[static_cast<std::size_t>(rank_)];
  s.bytes_recv += bytes;
  s.messages_recv += messages;
}

void RankContext::account_p2p_send(int dest, std::size_t bytes) {
  HGR_DASSERT(dest != rank_);
  account(bytes, 1);
  const std::size_t cell = static_cast<std::size_t>(rank_) *
                               static_cast<std::size_t>(comm_.num_ranks_) +
                           static_cast<std::size_t>(dest);
  comm_.p2p_bytes_[cell] += bytes;
  comm_.p2p_messages_[cell] += 1;
  if (obs::events_enabled()) obs::emit_instant("send", "comm", bytes);
}

void RankContext::bump_collectives() {
  comm_.stats_[static_cast<std::size_t>(rank_)].collectives += 1;
}

namespace {

struct CollectiveCounters {
  obs::CachedCounter count;
  obs::CachedCounter bytes;
};

// Per-kind distribution handles (Observability v3): call latency and
// per-call payload size. Counters above give the totals; these give the
// shape (p50/p95/p99), which is what exposes straggler collectives.
struct CollectiveHists {
  obs::CachedHistogram call_ns;
  obs::CachedHistogram msg_bytes;
};

CollectiveHists& collective_hists(CollectiveKind kind) {
  static CollectiveHists hists[kNumCollectiveKinds] = {
      {obs::CachedHistogram("comm.barrier.call_ns"),
       obs::CachedHistogram("comm.barrier.msg_bytes")},
      {obs::CachedHistogram("comm.allgather.call_ns"),
       obs::CachedHistogram("comm.allgather.msg_bytes")},
      {obs::CachedHistogram("comm.allreduce.call_ns"),
       obs::CachedHistogram("comm.allreduce.msg_bytes")},
      {obs::CachedHistogram("comm.bcast.call_ns"),
       obs::CachedHistogram("comm.bcast.msg_bytes")},
      {obs::CachedHistogram("comm.alltoallv.call_ns"),
       obs::CachedHistogram("comm.alltoallv.msg_bytes")},
  };
  return hists[static_cast<std::size_t>(kind)];
}

// Cached per-kind handles: record_collective runs once per collective per
// rank, so the old name-building (std::string concat + two registry mutex
// lookups) was measurable on collective-heavy refinement loops.
CollectiveCounters& collective_counters(CollectiveKind kind) {
  static CollectiveCounters counters[kNumCollectiveKinds] = {
      {obs::CachedCounter("comm.barrier.count"),
       obs::CachedCounter("comm.barrier.bytes")},
      {obs::CachedCounter("comm.allgather.count"),
       obs::CachedCounter("comm.allgather.bytes")},
      {obs::CachedCounter("comm.allreduce.count"),
       obs::CachedCounter("comm.allreduce.bytes")},
      {obs::CachedCounter("comm.bcast.count"),
       obs::CachedCounter("comm.bcast.bytes")},
      {obs::CachedCounter("comm.alltoallv.count"),
       obs::CachedCounter("comm.alltoallv.bytes")},
  };
  return counters[static_cast<std::size_t>(kind)];
}

}  // namespace

void RankContext::record_collective(CollectiveKind kind, std::size_t bytes) {
  CollectiveCounters& c = collective_counters(kind);
  c.count += 1;
  if (bytes != 0) c.bytes += bytes;
  collective_hists(kind).msg_bytes.record(static_cast<std::int64_t>(bytes));
  comm_.collective_calls_[static_cast<std::size_t>(rank_)]
                         [static_cast<std::size_t>(kind)] += 1;
}

void RankContext::record_collective_seconds(CollectiveKind kind,
                                            double seconds) {
  collective_hists(kind).call_ns.record(
      static_cast<std::int64_t>(seconds * 1e9));
}

void RankContext::barrier() {
  const int parity = begin_collective(CollectiveKind::kBarrier);
  counted_fence();
  check_congruent(parity);
}

void RankContext::counted_fence() {
  faultpoint(fault::FaultSite::kBarrier);
  CollectiveTimer lat(*this, CollectiveKind::kBarrier);
  record_collective(CollectiveKind::kBarrier, 0);
  bump_collectives();
  comm_.barrier_wait(rank_);
}

int RankContext::begin_collective(CollectiveKind kind, int root) {
  std::uint64_t& epoch =
      comm_.collective_epochs_[static_cast<std::size_t>(rank_)].value;
  const int parity = static_cast<int>(epoch & 1U);
  Comm::CollectiveSlot& slot = comm_.slots_[static_cast<std::size_t>(parity)]
                                           [static_cast<std::size_t>(rank_)];
  slot.call = epoch;
  slot.kind = kind;
  slot.root = root;
  ++epoch;
  return parity;
}

void RankContext::check_congruent(int parity) const {
  const auto& slots = comm_.slots_[static_cast<std::size_t>(parity)];
  const auto describe = [&](int r) {
    const Comm::CollectiveSlot& slot = slots[static_cast<std::size_t>(r)];
    std::string out = "rank " + std::to_string(r);
    if (slot.call == Comm::kNoCall) return out + " entered no collective";
    out += " entered ";
    out += collective_kind_name(slot.kind);
    if (slot.kind == CollectiveKind::kBcast)
      out += "(root " + std::to_string(slot.root) + ")";
    return out + " as call #" + std::to_string(slot.call);
  };
  const Comm::CollectiveSlot& mine = slots[static_cast<std::size_t>(rank_)];
  for (int r = 0; r < size(); ++r) {
    const Comm::CollectiveSlot& peer = slots[static_cast<std::size_t>(r)];
    if (peer.call != mine.call || peer.kind != mine.kind ||
        peer.root != mine.root)
      throw CollectiveMismatch("collective mismatch: " + describe(rank_) +
                               ", but " + describe(r));
  }
}

void RankContext::publish_window(int parity, const void* data,
                                 std::size_t bytes, const std::size_t* counts,
                                 const std::size_t* displs) {
  Comm::CollectiveSlot& slot =
      comm_.slots_[static_cast<std::size_t>(parity)]
                  [static_cast<std::size_t>(rank_)];
  if (bytes > slot.payload.capacity()) {
    BufferPool& p = pool();
    p.release(std::move(slot.payload));
    slot.payload = p.acquire(bytes);
  }
  if (bytes != 0) std::memcpy(slot.payload.data(), data, bytes);
  slot.bytes = bytes;
  if (counts != nullptr) {
    const std::size_t p = static_cast<std::size_t>(size());
    slot.counts.assign(counts, counts + p);
    slot.displs.assign(displs, displs + p + 1);
  } else {
    slot.counts.clear();
    slot.displs.clear();
  }
}

const void* RankContext::window_data(int parity, int r) const {
  return comm_.slots_[static_cast<std::size_t>(parity)]
                     [static_cast<std::size_t>(r)]
                         .payload.data();
}

std::size_t RankContext::window_bytes(int parity, int r) const {
  return comm_.slots_[static_cast<std::size_t>(parity)]
                     [static_cast<std::size_t>(r)]
      .bytes;
}

std::size_t RankContext::window_count(int parity, int r, int slot) const {
  const Comm::CollectiveSlot& s =
      comm_.slots_[static_cast<std::size_t>(parity)]
                  [static_cast<std::size_t>(r)];
  HGR_DASSERT(!s.counts.empty());
  return s.counts[static_cast<std::size_t>(slot)];
}

std::size_t RankContext::window_displ(int parity, int r, int slot) const {
  const Comm::CollectiveSlot& s =
      comm_.slots_[static_cast<std::size_t>(parity)]
                  [static_cast<std::size_t>(r)];
  HGR_DASSERT(!s.displs.empty());
  return s.displs[static_cast<std::size_t>(slot)];
}

std::byte* RankContext::reduce_slot(int parity, int r, std::size_t bytes) {
  HGR_ASSERT_MSG(bytes <= Comm::kReduceSlotBytes,
                 "allreduce value exceeds the fixed reduce slot");
  return comm_.reduce_slots_[static_cast<std::size_t>(parity)]
                            [static_cast<std::size_t>(r)]
      .bytes;
}

void RankContext::collective_fence(int parity) {
  comm_.barrier_wait(rank_);
  check_congruent(parity);
}

}  // namespace hgr
