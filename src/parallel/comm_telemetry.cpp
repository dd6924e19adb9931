#include "parallel/comm_telemetry.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace hgr {

const char* collective_kind_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kBarrier:
      return "barrier";
    case CollectiveKind::kAllgather:
      return "allgather";
    case CollectiveKind::kAllreduce:
      return "allreduce";
    case CollectiveKind::kBcast:
      return "bcast";
    case CollectiveKind::kAlltoallv:
      return "alltoallv";
  }
  return "unknown";
}

void CommTelemetry::resize(int n) {
  HGR_ASSERT(n >= 0);
  num_ranks = n;
  ranks.assign(static_cast<std::size_t>(n), RankCommTelemetry{});
  p2p_bytes.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                   0);
  p2p_messages.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
}

void CommTelemetry::accumulate(const CommTelemetry& other) {
  if (other.num_ranks > num_ranks) {
    // Expand in place: rebuild the row-major matrices at the new width.
    CommTelemetry grown;
    grown.resize(other.num_ranks);
    for (int r = 0; r < num_ranks; ++r) {
      grown.ranks[static_cast<std::size_t>(r)] =
          ranks[static_cast<std::size_t>(r)];
      for (int d = 0; d < num_ranks; ++d) {
        grown.p2p_bytes_at(r, d) = p2p_bytes_at(r, d);
        grown.p2p_messages[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(grown.num_ranks) +
                           static_cast<std::size_t>(d)] =
            p2p_messages_at(r, d);
      }
    }
    grown.run_seconds = run_seconds;
    grown.runs = runs;
    *this = std::move(grown);
  }
  for (int r = 0; r < other.num_ranks; ++r) {
    RankCommTelemetry& mine = ranks[static_cast<std::size_t>(r)];
    const RankCommTelemetry& theirs =
        other.ranks[static_cast<std::size_t>(r)];
    mine.bytes_sent += theirs.bytes_sent;
    mine.bytes_recv += theirs.bytes_recv;
    mine.messages_sent += theirs.messages_sent;
    mine.messages_recv += theirs.messages_recv;
    mine.barrier_wait_seconds += theirs.barrier_wait_seconds;
    for (std::size_t k = 0; k < kNumCollectiveKinds; ++k)
      mine.collective_calls[k] += theirs.collective_calls[k];
    for (int d = 0; d < other.num_ranks; ++d) {
      p2p_bytes_at(r, d) += other.p2p_bytes_at(r, d);
      p2p_messages[static_cast<std::size_t>(r) *
                       static_cast<std::size_t>(num_ranks) +
                   static_cast<std::size_t>(d)] +=
          other.p2p_messages_at(r, d);
    }
  }
  run_seconds += other.run_seconds;
  runs += other.runs;
}

double CommTelemetry::send_byte_imbalance() const {
  if (ranks.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const RankCommTelemetry& r : ranks) {
    total += r.bytes_sent;
    max = std::max(max, r.bytes_sent);
  }
  if (total == 0) return 0.0;
  const double avg =
      static_cast<double>(total) / static_cast<double>(ranks.size());
  return static_cast<double>(max) / avg;
}

double CommTelemetry::max_wait_fraction() const {
  if (run_seconds <= 0.0) return 0.0;
  double max = 0.0;
  for (const RankCommTelemetry& r : ranks)
    max = std::max(max, r.barrier_wait_seconds / run_seconds);
  return max;
}

std::string CommTelemetry::to_json() const {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object().key("num_ranks").i64(num_ranks).key("runs").u64(runs);
  w.key("run_seconds").num(run_seconds);
  w.key("send_byte_imbalance").num(send_byte_imbalance(), 6);
  w.key("max_wait_fraction").num(max_wait_fraction(), 6);
  w.key("ranks").begin_array();
  for (int r = 0; r < num_ranks; ++r) {
    const RankCommTelemetry& t = ranks[static_cast<std::size_t>(r)];
    w.begin_object().key("rank").i64(r).key("bytes_sent").u64(t.bytes_sent);
    w.key("bytes_recv").u64(t.bytes_recv);
    w.key("messages_sent").u64(t.messages_sent);
    w.key("messages_recv").u64(t.messages_recv);
    w.key("barrier_wait_seconds").num(t.barrier_wait_seconds);
    const double wait_fraction =
        run_seconds > 0.0 ? t.barrier_wait_seconds / run_seconds : 0.0;
    w.key("wait_fraction").num(wait_fraction, 6);
    w.key("collectives").begin_object();
    for (std::size_t k = 0; k < kNumCollectiveKinds; ++k)
      w.key(collective_kind_name(static_cast<CollectiveKind>(k)))
          .u64(t.collective_calls[k]);
    w.end_object().end_object();
  }
  w.end_array();
  // Row-major matrices as arrays of rows, so the JSON is readable.
  const std::size_t width = static_cast<std::size_t>(num_ranks);
  for (const auto& [name, matrix] :
       {std::pair{"p2p_bytes", &p2p_bytes},
        std::pair{"p2p_messages", &p2p_messages}}) {
    w.key(name).begin_array();
    for (std::size_t row = 0; row * width < matrix->size(); ++row) {
      w.begin_array();
      for (std::size_t c = 0; c < width; ++c)
        w.u64((*matrix)[row * width + c]);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  return out;
}

namespace {

std::mutex g_telemetry_mutex;
CommTelemetry g_telemetry;  // guarded by g_telemetry_mutex

}  // namespace

void accumulate_comm_telemetry(const CommTelemetry& run) {
  std::lock_guard lock(g_telemetry_mutex);
  g_telemetry.accumulate(run);
}

CommTelemetry comm_telemetry_snapshot() {
  std::lock_guard lock(g_telemetry_mutex);
  return g_telemetry;
}

}  // namespace hgr
