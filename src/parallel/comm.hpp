// In-process message-passing runtime: the MPI substitute.
//
// The paper's partitioner is an MPI program on a 64-node cluster. This
// container has no MPI and one core, so the parallel algorithms here run
// against an in-process communicator: p ranks on p threads and the five
// collectives the algorithms need (barrier, broadcast, all-reduce,
// all-gather, all-to-all). There is no point-to-point API: the paper's
// partitioner (§4) is a round-based collective program. Every transfer is
// counted in bytes per rank, so communication *volume* — the metric the
// paper's claims rest on — is measured exactly even though wall-clock
// scalability is not reproducible on one core.
//
// Data model (see docs/COMM.md): collectives move FlatBuffer<T> payloads —
// CSR-style counts/displs plus one contiguous typed block drawn from a
// per-rank BufferPool — through a double-buffered per-rank exchange
// window. There is no byte-vector serialization on the typed paths: the
// sender memcpys its contiguous payload into its window half once, a
// single barrier publishes it, and each receiver copies every slice
// exactly once, straight into its own typed payload. The window is
// double-buffered by collective-epoch parity, so one barrier per
// collective is enough: the next collective's barrier is the previous
// one's drain fence (a rank can only be one collective ahead of the
// slowest reader). Rank-local alltoallv slices are copied like the others
// but never counted as traffic, and allreduce folds fixed-size per-rank
// slots instead of allgathering vectors.
//
// Failure model: an exception escaping one rank's function aborts the
// communicator — every rank blocked in a collective is woken with
// CommAborted, all threads are joined, and Comm::run rethrows the
// lowest-rank original exception to the caller. The communicator stays
// reusable afterwards. Ranks that enter different collectives (kind, call
// number or bcast root) at the same fence all throw CollectiveMismatch
// before reading any payload.
//
// Deadlock watchdog: every blocking point (the barrier every collective is
// built on, and an injected stall) publishes per-rank "waiting on what"
// state, and a rank whose function returned publishes that too. A watchdog
// thread detects the no-rank-can-progress configuration (uneven collective
// counts, a rank that returned while its peers wait, a stalled rank),
// composes a who-waits-on-whom diagnosis, and aborts the communicator
// through the CommAborted path; Comm::run then throws CommDeadlock instead
// of hanging forever. See docs/CHECKING.md.
//
// Fault injection: set_fault_plan installs a deterministic chaos schedule
// (fault/fault_plan.hpp); every collective entry consults it and may stall
// the rank (wakes only on abort — the watchdog's test vector), sleep
// (delayed delivery), or throw FaultInjected mid-collective (the abort
// path's test vector). See docs/ROBUSTNESS.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "obs/events.hpp"
#include "parallel/comm_telemetry.hpp"
#include "parallel/flat_buffer.hpp"

namespace hgr {

/// Per-rank traffic counters (bytes that would cross the network) and
/// barrier wait time. Each rank's entry is written only by its own thread
/// while a run is live.
struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t messages_recv = 0;
  std::uint64_t collectives = 0;
  double barrier_wait_seconds = 0.0;
};

class Comm;

/// Thrown inside ranks blocked on communication when a peer rank failed;
/// Comm::run translates it back into the peer's original exception.
class CommAborted : public std::runtime_error {
 public:
  CommAborted()
      : std::runtime_error("communication aborted: a peer rank threw") {}
};

/// Thrown by Comm::run when the watchdog detected that every rank was
/// blocked in communication with no progress for longer than the deadlock
/// timeout. what() carries the per-rank who-waits-on-whom diagnosis.
class CommDeadlock : public std::runtime_error {
 public:
  explicit CommDeadlock(const std::string& diagnosis)
      : std::runtime_error(diagnosis) {}
};

/// Thrown on every rank whose peers entered a different collective (kind,
/// call number or bcast root) at the same fence. what() names both ranks'
/// collectives; Comm::run rethrows the lowest rank's.
class CollectiveMismatch : public std::runtime_error {
 public:
  explicit CollectiveMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// Handle a rank uses inside Comm::run. All operations are blocking and
/// must be called congruently across ranks (like MPI collectives).
class RankContext {
 public:
  RankContext(Comm& comm, int rank) : comm_(comm), rank_(rank) {}

  int rank() const { return rank_; }
  /// Typed view of this rank's id for ownership logic; the comm internals
  /// below this line stay on raw ints (wire/slot indices).
  RankId rank_id() const { return RankId{rank_}; }
  int size() const;

  /// This rank's payload pool. FlatBuffers built from it recycle their
  /// blocks across collective calls; they must not outlive the Comm.
  BufferPool& pool();

  /// A p-slot FlatBuffer wired to this rank's pool — the canonical start
  /// of a count pass for an alltoallv.
  template <typename T>
  FlatBuffer<T> make_buffer() {
    return FlatBuffer<T>(size(), &pool());
  }

  void barrier();

  /// Gather every rank's contribution; slot s of the result holds rank s's
  /// elements, contiguous in rank order.
  template <typename T>
  FlatBuffer<T> allgatherv(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    faultpoint(fault::FaultSite::kAllgather);
    CollectiveTimer lat(*this, CollectiveKind::kAllgather);
    const std::size_t mine_bytes = mine.size() * sizeof(T);
    record_collective(CollectiveKind::kAllgather,
                      mine_bytes * static_cast<std::size_t>(size() - 1));
    // Traffic model: each rank ships its contribution to the other p-1
    // ranks (same accounting as the pre-flat slot exchange).
    account(mine_bytes * static_cast<std::size_t>(size() - 1), 0);
    bump_collectives();
    const int parity = begin_collective(CollectiveKind::kAllgather);
    publish_window(parity, mine.data(), mine_bytes, nullptr, nullptr);
    collective_fence(parity);
    FlatBuffer<T> incoming(size(), &pool());
    for (int s = 0; s < size(); ++s)
      incoming.count(s) = window_bytes(parity, s) / sizeof(T);
    incoming.commit_counts();
    for (int s = 0; s < size(); ++s) {
      std::span<T> dst = incoming.push_n(s, incoming.size(s));
      if (!dst.empty())
        std::memcpy(dst.data(), window_data(parity, s), dst.size_bytes());
    }
    return incoming;
  }

  /// Reduce one value per rank with `op`, folded in rank order on a fixed
  /// per-rank slot (no vector allgather, no allocation).
  template <typename T, typename Op>
  T allreduce(T value, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    faultpoint(fault::FaultSite::kAllreduce);
    CollectiveTimer lat(*this, CollectiveKind::kAllreduce);
    record_collective(CollectiveKind::kAllreduce,
                      sizeof(T) * static_cast<std::size_t>(size() - 1));
    account(sizeof(T) * static_cast<std::size_t>(size() - 1), 0);
    bump_collectives();
    const int parity = begin_collective(CollectiveKind::kAllreduce);
    std::memcpy(reduce_slot(parity, rank_, sizeof(T)), &value, sizeof(T));
    collective_fence(parity);
    T acc;
    std::memcpy(&acc, reduce_slot(parity, 0, sizeof(T)), sizeof(T));
    for (int r = 1; r < size(); ++r) {
      T next;
      std::memcpy(&next, reduce_slot(parity, r, sizeof(T)), sizeof(T));
      acc = op(acc, next);
    }
    return acc;
  }

  template <typename T>
  T allreduce_sum(T value) {
    return allreduce<T>(value, [](T a, T b) { return a + b; });
  }

  /// Personalized all-to-all over flat buffers: outgoing slot d goes to
  /// rank d; incoming slot s holds rank s's slice for this rank. The
  /// rank-local slice is excluded from traffic counters (see
  /// comm_telemetry.hpp).
  template <typename T>
  FlatBuffer<T> alltoallv(const FlatBuffer<T>& outgoing) {
    static_assert(std::is_trivially_copyable_v<T>);
    HGR_ASSERT(outgoing.slots() == size());
    HGR_DASSERT(outgoing.filled());
    faultpoint(fault::FaultSite::kAlltoallv);
    CollectiveTimer lat(*this, CollectiveKind::kAlltoallv);
    std::size_t off_rank_bytes = 0;
    for (int d = 0; d < size(); ++d)
      if (d != rank_) off_rank_bytes += outgoing.size(d) * sizeof(T);
    record_collective(CollectiveKind::kAlltoallv, off_rank_bytes);
    // One message per off-rank destination, empty slices included.
    for (int d = 0; d < size(); ++d)
      if (d != rank_) account_p2p_send(d, outgoing.size(d) * sizeof(T));
    const int parity = begin_collective(CollectiveKind::kAlltoallv);
    publish_window(parity, outgoing.all().data(),
                   outgoing.total() * sizeof(T), outgoing.counts_data(),
                   outgoing.displs_data());
    counted_fence();  // the one fence, counted as a barrier
    check_congruent(parity);
    FlatBuffer<T> incoming(size(), &pool());
    for (int s = 0; s < size(); ++s)
      incoming.count(s) = window_count(parity, s, rank_);
    incoming.commit_counts();
    for (int s = 0; s < size(); ++s) {
      std::span<T> dst = incoming.push_n(s, incoming.size(s));
      if (!dst.empty())
        std::memcpy(dst.data(),
                    static_cast<const T*>(window_data(parity, s)) +
                        window_displ(parity, s, rank_),
                    dst.size_bytes());
      if (s != rank_) account_recv(dst.size_bytes(), 1);
    }
    return incoming;
  }

  /// Broadcast root's vector to everyone. Only the root publishes its slot
  /// and only that slot is read; non-root ranks contribute nothing.
  template <typename T>
  std::vector<T> bcast(const std::vector<T>& mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    faultpoint(fault::FaultSite::kBcast);
    CollectiveTimer lat(*this, CollectiveKind::kBcast);
    const std::size_t root_bytes =
        rank_ == root ? mine.size() * sizeof(T) *
                            static_cast<std::size_t>(size() - 1)
                      : 0;
    record_collective(CollectiveKind::kBcast, root_bytes);
    account(root_bytes, 0);
    bump_collectives();
    const int parity = begin_collective(CollectiveKind::kBcast, root);
    if (rank_ == root)
      publish_window(parity, mine.data(), mine.size() * sizeof(T), nullptr,
                     nullptr);
    collective_fence(parity);
    const std::size_t bytes = window_bytes(parity, root);
    HGR_ASSERT(bytes % sizeof(T) == 0);
    std::vector<T> out(bytes / sizeof(T));
    if (bytes != 0) std::memcpy(out.data(), window_data(parity, root), bytes);
    return out;
  }

  const CommStats& stats() const;

 private:
  /// Consult the communicator's fault plan (if any) at an instrumented
  /// blocking point; may sleep, throw FaultInjected, or stall until abort.
  void faultpoint(fault::FaultSite site);

  void account(std::size_t bytes, std::size_t messages);
  void account_recv(std::size_t bytes, std::size_t messages);
  /// Per-destination charge of an alltoallv slice: CommStats
  /// bytes/messages, the p2p matrices, and the "send" timeline instant.
  void account_p2p_send(int dest, std::size_t bytes);
  /// Bump obs counters comm.<kind>.count / comm.<kind>.bytes, record the
  /// payload into the comm.<kind>.msg_bytes histogram, and tally the
  /// per-rank collective call.
  void record_collective(CollectiveKind kind, std::size_t bytes);
  /// Record one call's wall time into the comm.<kind>.call_ns latency
  /// histogram (the distribution counters cannot express).
  void record_collective_seconds(CollectiveKind kind, double seconds);

  /// RAII per-call probe: times the whole collective body (publish,
  /// fence, reads — injected faults included, since they are latency as
  /// far as the caller can tell) into comm.<kind>.call_ns, and brackets it
  /// with a "comm" timeline span named after the collective.
  class CollectiveTimer {
   public:
    CollectiveTimer(RankContext& ctx, CollectiveKind kind)
        : ctx_(ctx),
          kind_(kind),
          span_(obs::events_enabled() ? collective_kind_name(kind)
                                      : nullptr) {
      if (span_ != nullptr) {
        obs::emit_begin(span_, "comm");
        timer_.reset();  // time the collective, not the emit
      }
    }
    ~CollectiveTimer() {
      ctx_.record_collective_seconds(kind_, timer_.seconds());
      if (span_ != nullptr) obs::emit_end(span_, "comm");
    }
    CollectiveTimer(const CollectiveTimer&) = delete;
    CollectiveTimer& operator=(const CollectiveTimer&) = delete;

   private:
    RankContext& ctx_;
    CollectiveKind kind_;
    const char* span_;  // emitted begin, owed an end; null when capture off
    WallTimer timer_;
  };
  /// CommStats.collectives += 1 (each collective counts once; barriers
  /// count through barrier()).
  void bump_collectives();

  // Double-buffered exchange window (owned by Comm, fenced by barriers).
  // begin_collective() returns this collective's window parity, stamps
  // the rank's slot with (call number, kind, bcast root) and bumps the
  // rank's epoch; exactly one barrier_wait must follow each publish (the
  // parity invariant that lets one barrier double as the previous
  // collective's drain fence). Barriers take a call number too.
  int begin_collective(CollectiveKind kind, int root = -1);
  /// After the fence: throw CollectiveMismatch unless every rank stamped
  /// this parity with the same call as this rank.
  void check_congruent(int parity) const;
  void publish_window(int parity, const void* data, std::size_t bytes,
                      const std::size_t* counts, const std::size_t* displs);
  const void* window_data(int parity, int r) const;
  std::size_t window_bytes(int parity, int r) const;
  std::size_t window_count(int parity, int r, int slot) const;
  std::size_t window_displ(int parity, int r, int slot) const;
  std::byte* reduce_slot(int parity, int r, std::size_t bytes);
  /// Uncounted barrier separating a collective's publishes from its reads,
  /// followed by the congruence check.
  void collective_fence(int parity);
  /// The barrier's counted body (fault point, telemetry, wait) without its
  /// call stamp: barrier() and alltoallv's fence.
  void counted_fence();

  Comm& comm_;
  int rank_;
};

/// The communicator: owns the collective exchange window and launches one
/// thread per rank.
class Comm {
 public:
  explicit Comm(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// Run f as rank r on each of num_ranks threads; returns when all ranks
  /// finish. If any rank throws, every other rank blocked in a collective
  /// is aborted (it observes CommAborted), all threads are joined, and the
  /// lowest-rank original exception is rethrown here. If the watchdog
  /// detected a deadlock instead, CommDeadlock is thrown.
  void run(const std::function<void(RankContext&)>& f);

  /// Seconds of no-rank-can-progress before the watchdog declares a
  /// deadlock. 0 disables the watchdog. Default 30s: far above any
  /// legitimate full-quiescence window (a satisfiable barrier is woken at
  /// notify time), yet bounded enough that CI fails with a diagnosis
  /// instead of timing out. Atomic: may be called from any thread, even
  /// mid-run — the watchdog re-reads it every poll, so shortening or
  /// extending a live run's timeout takes effect immediately. (Setting 0
  /// mid-run pauses detection but cannot retire an already-started
  /// watchdog thread; enabling takes effect at the next run().)
  void set_deadlock_timeout(double seconds) {
    deadlock_timeout_.store(seconds, std::memory_order_release);
  }
  double deadlock_timeout() const {
    return deadlock_timeout_.load(std::memory_order_acquire);
  }

  /// Install (or clear, with nullptr) the deterministic fault plan every
  /// subsequent run() consults at every collective entry. Only
  /// valid between runs. The plan's match counters live in the plan, so
  /// sharing one plan across Comms (or runs) continues its schedule.
  void set_fault_plan(std::shared_ptr<const fault::FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  const fault::FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Aggregate traffic over all ranks from the last run().
  CommStats total_stats() const;
  const CommStats& rank_stats(int rank) const {
    return stats_[static_cast<std::size_t>(rank)];
  }

  /// Rank r's payload pool (persistent across runs — that is the point).
  /// Must not be touched while a run is live except by rank r itself.
  const BufferPool& rank_pool(int rank) const {
    return rank_pools_[static_cast<std::size_t>(rank)];
  }

  /// Drop every cached payload block (all rank pools). Only valid between
  /// runs; outstanding FlatBuffers still release back safely afterwards.
  void clear_buffer_pools() {
    for (BufferPool& pool : rank_pools_) pool.clear();
  }

  /// Full telemetry (per-rank stats, p2p matrix, collective counts, wait
  /// times) from the last run(). Also folded into the process-global
  /// accumulator (comm_telemetry_snapshot()) at the end of every run.
  CommTelemetry telemetry() const;

 private:
  friend class RankContext;

  /// One rank's half of the exchange window for one epoch parity: a
  /// persistent payload block (grown from the rank's BufferPool, never
  /// shrunk) plus the alltoallv slice layout (counts/displs in elements;
  /// empty for allgather/bcast publishes). Written only by the owning rank
  /// before its barrier, read by every rank after it.
  struct CollectiveSlot {
    PoolBlock payload;
    std::size_t bytes = 0;
    std::vector<std::size_t> counts;
    std::vector<std::size_t> displs;
    // The call this rank entered on this parity (check_congruent).
    std::uint64_t call = kNoCall;
    CollectiveKind kind = CollectiveKind::kBarrier;
    int root = -1;  // bcast only
  };
  static constexpr std::uint64_t kNoCall = ~std::uint64_t{0};

  /// Fixed-size per-rank allreduce slot; 64 bytes covers every wire type
  /// the partitioner reduces (asserted per call site).
  static constexpr std::size_t kReduceSlotBytes = 64;
  struct alignas(64) ReduceSlot {
    std::byte bytes[kReduceSlotBytes];
  };

  // Sense-reversing generation barrier. `rank` identifies the caller for
  // the watchdog's wait-state bookkeeping.
  void barrier_wait(int rank);

  // Wake every rank blocked in a barrier or stall; they throw CommAborted.
  void abort_all();

  // --- fault injection (docs/ROBUSTNESS.md) ---

  /// Act on a firing fault rule for `rank` at `site`: sleep, throw
  /// FaultInjected, or block until abort_all (throwing CommAborted then).
  void maybe_inject(int rank, fault::FaultSite site);
  /// The kStall implementation: publish a kStalled wait state and block on
  /// the barrier condvar until the run is aborted. Never returns
  /// normally; without a live watchdog (deadlock_timeout 0) and with no
  /// other rank failing, this hangs the run — exactly the failure the
  /// watchdog exists to catch.
  [[noreturn]] void stall_until_abort(int rank);

  // --- deadlock watchdog ---

  /// What a rank is currently blocked on, published for the watchdog. A
  /// returned rank can never arrive at another barrier, so it counts as
  /// unable to progress; it is not itself a wait, so the watchdog fires
  /// only while some rank is in kBarrier or kStalled.
  enum class WaitState : int {
    kNotWaiting,
    kBarrier,
    kStalled,   // injected fault, wakes on abort only
    kReturned,  // the rank's function returned
  };

  /// Publish rank r's wait state and bump the progress counter.
  void set_wait_state(int rank, WaitState state);

  /// RAII: publish "rank r is blocked on ..." around a cv wait. Doubles as
  /// the wait-time probe: the same bracket that feeds the watchdog times
  /// the wait and accumulates it into the rank's barrier_wait_seconds (and
  /// emits a "wait.barrier" timeline span when event capture is on).
  class ScopedWait {
   public:
    ScopedWait(Comm& comm, int rank, WaitState state);
    ~ScopedWait();
    ScopedWait(const ScopedWait&) = delete;
    ScopedWait& operator=(const ScopedWait&) = delete;

   private:
    Comm& comm_;
    int rank_;
    bool event_ = false;
    WallTimer timer_;
  };

  void watchdog_loop();
  std::string compose_deadlock_diagnosis(double stuck_seconds);

  int num_ranks_;
  std::vector<CommStats> stats_;
  // Row-major p x p traffic matrices (row = sender). Each row is written
  // only by its own rank's thread during a run; read after join.
  std::vector<std::uint64_t> p2p_bytes_;
  std::vector<std::uint64_t> p2p_messages_;
  // Per-rank collective call counts, indexed by CollectiveKind.
  std::vector<std::array<std::uint64_t, kNumCollectiveKinds>>
      collective_calls_;
  // Wall time of the last completed run() (denominator of wait fractions).
  double last_run_seconds_ = 0.0;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::atomic<bool> aborted_{false};

  // Watchdog state. progress_ is bumped on every wait-state change and
  // every barrier release; a frozen counter with every rank's WaitState
  // published means no rank can ever make progress again.
  std::unique_ptr<std::atomic<WaitState>[]> wait_states_;
  std::atomic<std::uint64_t> progress_{0};
  // Atomic: set_deadlock_timeout may race the watchdog's per-poll reads.
  std::atomic<double> deadlock_timeout_{30.0};
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::string deadlock_diagnosis_;  // guarded by watchdog_mutex_

  // Collective exchange window: one slot per rank per epoch parity,
  // fenced by barriers (the barrier mutex provides the happens-before
  // between a publish and the peers' reads). Double-buffering makes one
  // barrier per collective sufficient: before a rank can overwrite parity
  // P at epoch e+2 it must pass epoch e+1's barrier, which every reader
  // only reaches after finishing its epoch-e reads of parity P.
  std::array<std::vector<CollectiveSlot>, 2> slots_;
  std::array<std::vector<ReduceSlot>, 2> reduce_slots_;
  // Per-rank collective epoch (parity selector and call number). Each
  // entry is written only by its own rank's thread; congruent collectives
  // keep them equal, and check_congruent() verifies that they do.
  struct alignas(64) RankEpoch {
    std::uint64_t value = 0;
  };
  std::vector<RankEpoch> collective_epochs_;
  // Per-rank payload pools, persistent across runs.
  std::vector<BufferPool> rank_pools_;

  // Chaos schedule consulted by faultpoint(); null = no injection.
  std::shared_ptr<const fault::FaultPlan> fault_plan_;
};

inline BufferPool& RankContext::pool() {
  return comm_.rank_pools_[static_cast<std::size_t>(rank_)];
}

}  // namespace hgr
