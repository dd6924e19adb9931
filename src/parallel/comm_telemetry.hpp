// Communication telemetry for the in-process MPI substitute.
//
// The paper's evaluation (Figures 2-8) accounts communication volume and
// per-rank balance; comm.cpp already counts bytes per sender, but that is
// not enough to see *who talks to whom* or *who waits on whom*. This module
// defines the aggregate view the comm runtime exports after every
// Comm::run:
//   - per-rank send/recv message counts and byte volumes,
//   - a p2p traffic matrix (row = sender, column = receiver),
//   - per-collective call counts (barrier / allgather / allreduce / bcast /
//     alltoallv),
//   - per-rank barrier wait time, measured by the same ScopedWait brackets
//     the deadlock watchdog uses,
// plus two derived statistics: send-byte imbalance (max/avg over ranks) and
// the largest per-rank wait fraction of the run's wall time.
//
// Self-send accounting decision: rank-local traffic never counts. The
// alltoallv delivers the self-destined slice but charges no bytes_sent /
// messages_sent, no bytes_recv / messages_recv, and no p2p matrix cell for
// it. Only the off-rank slices appear in CommStats, the p2p matrices, and
// the comm.alltoallv.bytes counter, so byte totals model what would cross
// a real network.
//
// The comm runtime accumulates each run into a process-global accumulator
// and attaches the JSON snapshot as the "comm" section of the hgr-trace-v2
// export (obs::Registry::set_section), so `hgr_cli --trace-json=` and the
// bench binaries pick it up with no extra plumbing. See
// docs/OBSERVABILITY.md for the field reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hgr {

/// The collectives the runtime implements; indexes collective_calls.
enum class CollectiveKind : std::uint8_t {
  kBarrier = 0,
  kAllgather = 1,
  kAllreduce = 2,
  kBcast = 3,
  kAlltoallv = 4,
};

inline constexpr std::size_t kNumCollectiveKinds = 5;

/// Stable lowercase name ("barrier", "allgather", ...).
const char* collective_kind_name(CollectiveKind kind);

/// One rank's communication totals.
struct RankCommTelemetry {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_recv = 0;
  double barrier_wait_seconds = 0.0;
  std::array<std::uint64_t, kNumCollectiveKinds> collective_calls{};
};

/// Aggregate telemetry over one or more Comm::run calls.
struct CommTelemetry {
  int num_ranks = 0;
  std::vector<RankCommTelemetry> ranks;
  /// Row-major num_ranks x num_ranks matrices; row = sender, column =
  /// receiver. Self-sends are excluded (they bypass the network, matching
  /// bytes_sent accounting). Diagonal is always zero.
  std::vector<std::uint64_t> p2p_bytes;
  std::vector<std::uint64_t> p2p_messages;
  /// Wall seconds spent inside Comm::run, summed over runs.
  double run_seconds = 0.0;
  std::uint64_t runs = 0;

  std::uint64_t& p2p_bytes_at(int src, int dst) {
    return p2p_bytes[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(num_ranks) +
                     static_cast<std::size_t>(dst)];
  }
  std::uint64_t p2p_bytes_at(int src, int dst) const {
    return p2p_bytes[static_cast<std::size_t>(src) *
                         static_cast<std::size_t>(num_ranks) +
                     static_cast<std::size_t>(dst)];
  }
  std::uint64_t p2p_messages_at(int src, int dst) const {
    return p2p_messages[static_cast<std::size_t>(src) *
                            static_cast<std::size_t>(num_ranks) +
                        static_cast<std::size_t>(dst)];
  }

  /// Size for `n` ranks (zeroed); keeps matrices consistent with ranks.
  void resize(int n);

  /// Fold `other` into this, expanding to the larger rank count if the two
  /// runs used different communicator sizes.
  void accumulate(const CommTelemetry& other);

  /// max over ranks of bytes_sent divided by the average (1.0 = perfectly
  /// balanced; 0.0 when nothing was sent).
  double send_byte_imbalance() const;

  /// max over ranks of barrier_wait / run_seconds. 0.0 when
  /// run_seconds is 0.
  double max_wait_fraction() const;

  /// JSON object (schema documented in docs/OBSERVABILITY.md); this is the
  /// "comm" section of the hgr-trace-v2 export.
  std::string to_json() const;
};

/// Process-global accumulator (mutex-protected). The comm runtime folds
/// every finished run in; the snapshot covers every run since start-up.
void accumulate_comm_telemetry(const CommTelemetry& run);
CommTelemetry comm_telemetry_snapshot();

}  // namespace hgr
