// The hgr_serve core: a long-running repartitioning service fielding a
// stream of epoch-update requests across many named hypergraphs
// (docs/SERVING.md).
//
// Architecture: callers (socket readers, the stdin pump, tests, the bench
// driver) submit protocol lines from any thread. Admission is a bounded
// queue — a full queue sheds the request with a BUSY reply instead of
// letting latency grow without bound. Admitted requests are queued per
// graph and drained by ONE worker thread that owns every GraphState plus
// the warm machinery: the Workspace arenas, the ThreadPool, and each
// graph's EpochSession (hypergraph, partition, resident gain cache and
// drift baseline). Single-ownership keeps the partitioning pipeline free
// of new locks — the Workspace BusyGuard would abort on any second toucher
// — and makes batching natural: consecutive DELTA requests against the
// same graph are coalesced into one epoch dispatch (serve.coalesced).
//
// The PR 5 degradation policy is the per-request SLO layer: every dispatch
// runs under cfg.epoch_time_budget / max_retries / fallback, and the
// server's StopToken is threaded into RepartitionerConfig::stop so
// shutdown interrupts retry backoffs and degrades in-flight epochs to
// keep-old instead of waiting them out.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <thread>  // hgr-lint: thread-ok (worker handle; joined in stop())
#include <vector>

#include "common/stop_token.hpp"
#include "common/timer.hpp"
#include "core/epoch_session.hpp"
#include "fault/fault_plan.hpp"
#include "serve/request.hpp"

namespace hgr::serve {

struct ServeConfig {
  /// Defaults for LOAD requests that do not override them.
  Index default_k = 4;
  Weight default_alpha = 100;
  double default_epsilon = 0.05;
  std::uint64_t seed = 1;

  /// Shared-memory threads for the partitioning kernels (the worker's warm
  /// ThreadPool); 1 = serial.
  Index num_threads = 1;
  /// >0: full-tier dispatches run on the in-process parallel runtime.
  int num_ranks = 0;

  /// Admission bound: total requests queued across all graphs. A submit
  /// beyond this is shed with a BUSY reply (serve.shed).
  std::size_t queue_capacity = 64;

  /// Per-request SLO layer (the PR 5 degradation policy).
  int max_retries = 1;
  double retry_backoff_seconds = 0.0;
  double epoch_time_budget = 0.0;
  EpochFallback fallback = EpochFallback::kKeepOld;
  double deadlock_timeout = 10.0;

  /// Epoch tier routing for DELTA traffic; kAuto serves small deltas from
  /// the warm gain cache.
  IncrementalMode incremental = IncrementalMode::kAuto;
  check::CheckLevel check_level = check::CheckLevel::kOff;

  /// Injected faults at the request boundary (FaultSite::kServe) and
  /// inside parallel dispatches; null injects nothing.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
};

/// One reply line per request (OK / ERR / BUSY, docs/SERVING.md). Invoked
/// from the submitting thread (shed, parse errors) and from the worker
/// thread (completions); calls are serialized by the server.
using ReplyFn = std::function<void(const std::string&)>;

class Server {
 public:
  Server(ServeConfig cfg, ReplyFn reply);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse and admit one protocol line. Every non-blank line gets exactly
  /// one reply (possibly immediately: ERR on parse failure, BUSY on
  /// shed). Returns the assigned request id, or 0 for blank/comment lines.
  /// Thread-safe.
  std::uint64_t submit(const std::string& line);

  /// Block until every admitted request has been replied to.
  void drain();

  /// Stop accepting, cancel in-flight backoff via the stop token, reply
  /// BUSY to any still-queued requests, and join the worker. Idempotent.
  void stop();

  /// drain() then stop(): the clean shutdown path.
  void shutdown();

  /// Requests queued but not yet dispatched (point-in-time).
  std::size_t queue_depth() const;
  /// Total replies sent (OK + ERR + BUSY).
  std::uint64_t replied() const;

  /// The worker's stop token — RepartitionerConfig::stop for dispatches.
  StopToken& stop_token() { return stop_; }

 private:
  struct PendingRequest {
    Request req;
    WallTimer timer;  // submit -> reply latency (serve.request_ns)
  };
  struct GraphQueue {
    std::deque<PendingRequest> pending;
    bool in_rotation = false;
  };
  struct GraphState;  // worker-owned warm state; defined in server.cpp
  struct Runtime;     // worker-owned Workspace + ThreadPool; in server.cpp

  void worker_loop();
  void execute_batch(const std::string& graph,
                     std::vector<PendingRequest> batch);
  void reply_to(const PendingRequest& pr, const std::string& text);
  GraphState* find_graph(const std::string& name);
  RepartitionerConfig make_repart_config(const GraphState& gs);
  static EpochDelta apply_delta_batch(
      GraphState& gs, const std::vector<PendingRequest>& batch);
  static EpochDelta apply_add(GraphState& gs, const Request& req);
  static EpochDelta apply_remove(GraphState& gs, const Request& req);

  ServeConfig cfg_;
  ReplyFn reply_;
  std::mutex reply_mutex_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // worker wake: new work or stop
  std::condition_variable drain_cv_;  // drain(): queue empty + idle
  std::map<std::string, GraphQueue> queues_;
  std::deque<std::string> rotation_;  // graphs with pending work, FIFO
  std::size_t queued_ = 0;
  bool in_flight_ = false;  // worker is executing a batch
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t replied_ = 0;

  StopToken stop_;
  // Worker-owned (no lock): the warm runtime and graph states live here,
  // touched only from worker_loop / execute_batch. Declared runtime_
  // before graphs_: GraphStates hold pointers into the runtime's
  // Workspace, so they must be destroyed first.
  std::unique_ptr<Runtime> runtime_;
  std::map<std::string, std::unique_ptr<GraphState>> graphs_;
  std::thread worker_;  // hgr-lint: thread-ok (single service worker)
};

}  // namespace hgr::serve
