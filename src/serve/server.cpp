#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/epoch_session.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/io.hpp"
#include "metrics/balance.hpp"
#include "obs/stats_stream.hpp"
#include "obs/trace.hpp"

namespace hgr::serve {

namespace {

std::string ok_prefix(std::uint64_t id) { return "OK " + std::to_string(id); }

std::string err_line(std::uint64_t id, const std::string& why) {
  return "ERR " + std::to_string(id) + " " + why;
}

/// The part with the least weight under `p` (the first, on ties) — where
/// ADD places new vertices until the next epoch dispatch rebalances.
PartId lightest_part(const Hypergraph& h, const Partition& p) {
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  return PartId{
      static_cast<Index>(std::min_element(pw.begin(), pw.end()) - pw.begin())};
}

/// Copy `h`'s structure into a fresh builder over `new_n` vertices, with
/// `remap[v]` giving each old vertex's new id (kInvalidIndex = dropped).
/// Nets shrink to their surviving pins; degenerate nets are elided by the
/// builder as usual.
HypergraphBuilder rebuild_remapped(const Hypergraph& h, Index new_n,
                                   const IdVector<VertexId, Index>& remap) {
  HypergraphBuilder b(new_n);
  std::vector<Index> pins;
  for (const NetId net : h.nets()) {
    pins.clear();
    for (const VertexId v : h.pins(net))
      if (remap[v] != kInvalidIndex) pins.push_back(remap[v]);
    if (pins.size() >= 2) b.add_net(pins, h.net_cost(net));
  }
  for (const VertexId v : h.vertices()) {
    if (remap[v] == kInvalidIndex) continue;
    b.set_vertex_weight(remap[v], h.vertex_weight(v));
    b.set_vertex_size(remap[v], h.vertex_size(v));
  }
  return b;
}

IdVector<VertexId, Index> identity_remap(const Hypergraph& h) {
  IdVector<VertexId, Index> remap(h.num_vertices());
  for (const VertexId v : h.vertices()) remap[v] = v.v;
  return remap;
}

}  // namespace

/// Everything the worker keeps warm across requests: the scratch arenas
/// every dispatch reuses and (when configured) the shared-memory pool.
struct Server::Runtime {
  explicit Runtime(Index num_threads) {
    if (num_threads > 1) {
      pool.emplace(static_cast<int>(num_threads));
      ws.set_pool(&*pool);
    }
  }
  Workspace ws;
  std::optional<ThreadPool> pool;
};

/// Per-graph warm state, owned by the worker thread. The EpochSession
/// holds the live hypergraph and its current partition, the drift baseline
/// and the resident gain cache of the fast path. DELTA edits the
/// hypergraph in place, so the cache built on it stays valid across
/// requests (docs/INCREMENTAL.md, "Resident cache").
struct Server::GraphState {
  explicit GraphState(Workspace* ws) : session(ws) {}
  EpochSession session;
  Index k = 0;
  Weight alpha = 100;
  double epsilon = 0.05;
};

Server::Server(ServeConfig cfg, ReplyFn reply)
    : cfg_(std::move(cfg)), reply_(std::move(reply)) {
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  runtime_ = std::make_unique<Runtime>(cfg_.num_threads);
  worker_ = std::thread(  // hgr-lint: thread-ok (service worker; joined in stop())
      [this] { worker_loop(); });
}

Server::~Server() { stop(); }

std::uint64_t Server::submit(const std::string& line) {
  static obs::CachedCounter requests_counter("serve.requests");
  static obs::CachedCounter shed_counter("serve.shed");
  static obs::CachedCounter errors_counter("serve.errors");
  PendingRequest pr;
  pr.req = parse_request(line);
  if (pr.req.kind == RequestKind::kInvalid && pr.req.error.empty())
    return 0;  // blank line or comment: not a request
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pr.req.id = next_id_++;
  }
  const std::uint64_t id = pr.req.id;
  if (pr.req.kind == RequestKind::kInvalid) {
    errors_counter += 1;
    reply_to(pr, err_line(id, pr.req.error));
    return id;
  }
  bool shed = false;
  bool closed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      shed = true;
      closed = true;
    } else if (queued_ >= cfg_.queue_capacity) {
      // Backpressure: reply now instead of queueing unbounded latency.
      shed = true;
    } else {
      requests_counter += 1;
      GraphQueue& q = queues_[pr.req.graph];
      if (!q.in_rotation) {
        q.in_rotation = true;
        rotation_.push_back(pr.req.graph);
      }
      q.pending.push_back(std::move(pr));
      ++queued_;
      obs::gauge("serve.queue_depth").set(
          static_cast<std::int64_t>(queued_));
    }
  }
  if (shed) {
    shed_counter += 1;
    reply_to(pr, "BUSY " + std::to_string(id) +
                     (closed ? " server stopping" : " queue full"));
    return id;
  }
  work_cv_.notify_one();
  return id;
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  // A stopped worker sheds every leftover and zeroes queued_ on its way
  // out, so this predicate terminates under shutdown too.
  drain_cv_.wait(lock, [this] { return queued_ == 0 && !in_flight_; });
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    stopping_ = true;
  }
  stop_.request_stop();  // interrupts in-flight backoff / stalls
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  drain_cv_.notify_all();
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;  // let the queue drain without new arrivals
  }
  drain();
  stop();
}

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

std::uint64_t Server::replied() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return replied_;
}

void Server::reply_to(const PendingRequest& pr, const std::string& text) {
  static obs::CachedHistogram latency("serve.request_ns");
  latency.record(static_cast<std::int64_t>(pr.timer.seconds() * 1e9));
  {
    const std::lock_guard<std::mutex> lock(reply_mutex_);
    if (reply_) reply_(text);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++replied_;
  }
  drain_cv_.notify_all();
}

Server::GraphState* Server::find_graph(const std::string& name) {
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.get();
}

void Server::worker_loop() {
  static obs::CachedCounter shed_counter("serve.shed");
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (rotation_.empty()) {
      drain_cv_.notify_all();
      // Idle between requests — the common daemon state. Service any
      // pending SIGUSR1 stats dump here: phase-close flushing only fires
      // while work is running, so an idle dump request would otherwise
      // sit forever (src/obs/stats_stream.hpp).
      lock.unlock();
      obs::flush_pending_stats_dump();
      lock.lock();
      if (stopping_ || !rotation_.empty()) continue;
      work_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    const std::string graph = rotation_.front();
    rotation_.pop_front();
    GraphQueue& q = queues_[graph];
    q.in_rotation = false;
    std::vector<PendingRequest> batch;
    batch.push_back(std::move(q.pending.front()));
    q.pending.pop_front();
    // Coalesce a run of DELTA requests against the same graph into one
    // epoch dispatch: their weight updates compose (last write per vertex
    // wins) and the union of changed vertices seeds a single O(delta)
    // fast-path call instead of one full dispatch each.
    if (batch.front().req.kind == RequestKind::kDelta) {
      while (!q.pending.empty() &&
             q.pending.front().req.kind == RequestKind::kDelta) {
        batch.push_back(std::move(q.pending.front()));
        q.pending.pop_front();
      }
    }
    queued_ -= batch.size();
    obs::gauge("serve.queue_depth").set(static_cast<std::int64_t>(queued_));
    if (!q.pending.empty()) {
      q.in_rotation = true;
      rotation_.push_back(graph);
    }
    in_flight_ = true;
    lock.unlock();
    execute_batch(graph, std::move(batch));
    lock.lock();
    in_flight_ = false;
    if (queued_ == 0 && rotation_.empty()) drain_cv_.notify_all();
  }
  // Stopping: everything still queued is shed, not silently dropped —
  // every admitted request gets exactly one reply.
  std::vector<PendingRequest> leftovers;
  for (auto& [name, q] : queues_) {
    for (auto& pr : q.pending) leftovers.push_back(std::move(pr));
    q.pending.clear();
    q.in_rotation = false;
  }
  rotation_.clear();
  queued_ = 0;
  obs::gauge("serve.queue_depth").set(0);
  lock.unlock();
  for (const PendingRequest& pr : leftovers) {
    shed_counter += 1;
    reply_to(pr, "BUSY " + std::to_string(pr.req.id) + " server stopping");
  }
  drain_cv_.notify_all();
}

void Server::execute_batch(const std::string& graph,
                           std::vector<PendingRequest> batch) {
  static obs::CachedCounter batches_counter("serve.batches");
  static obs::CachedCounter coalesced_counter("serve.coalesced");
  static obs::CachedCounter errors_counter("serve.errors");
  static obs::CachedCounter degraded_counter("serve.degraded");
  batches_counter += 1;
  if (batch.size() > 1)
    coalesced_counter += static_cast<std::uint64_t>(batch.size() - 1);

  const auto fail_batch = [&](const std::string& why) {
    for (const PendingRequest& pr : batch) {
      errors_counter += 1;
      reply_to(pr, err_line(pr.req.id, why));
    }
  };

  // Injected faults at the request boundary (FaultSite::kServe): a delay
  // models a slow backend, a stall a wedged one (parked until shutdown or
  // the deadlock timeout, then failed), a throw an outright error.
  if (cfg_.fault_plan) {
    if (const auto d = cfg_.fault_plan->check(fault::FaultSite::kServe, 0)) {
      if (d->kind == fault::FaultKind::kDelay) {
        stop_.wait_for(d->delay_ms / 1000.0);
      } else {
        if (d->kind == fault::FaultKind::kStall)
          stop_.wait_for(cfg_.deadlock_timeout);
        fail_batch(d->description);
        return;
      }
    }
  }

  const Request& head = batch.front().req;
  try {
    if (head.kind == RequestKind::kLoad) {
      // A reload frees the old cache before the new file is read and
      // partitioned; its hypergraph and partition stay, so a failed reload
      // leaves the graph as it was.
      if (GraphState* old = find_graph(graph)) old->session.release_cache();
      auto state = std::make_unique<GraphState>(&runtime_->ws);
      state->k = head.k > 0 ? head.k : cfg_.default_k;
      state->alpha = head.alpha >= 0 ? head.alpha : cfg_.default_alpha;
      state->epsilon =
          head.epsilon > 0.0 ? head.epsilon : cfg_.default_epsilon;
      const Weight cut = state->session.bootstrap(
          read_hmetis_file(head.path), make_repart_config(*state).partition);
      const Hypergraph& h = state->session.hypergraph();
      const std::string reply =
          ok_prefix(head.id) + " graph=" + graph +
          " n=" + std::to_string(h.num_vertices()) +
          " nets=" + std::to_string(h.num_nets()) +
          " k=" + std::to_string(state->k) + " cut=" + std::to_string(cut) +
          " tier=static";
      graphs_[graph] = std::move(state);  // reload replaces warm state
      reply_to(batch.front(), reply);
      return;
    }

    GraphState* gs = find_graph(graph);
    if (gs == nullptr) {
      fail_batch("unknown graph '" + graph + "' (LOAD it first)");
      return;
    }
    EpochSession& session = gs->session;
    const Index n = session.hypergraph().num_vertices();

    EpochDelta delta;
    bool dispatch = true;
    std::string static_reply;
    switch (head.kind) {
      case RequestKind::kDelta: {
        // Validate the whole run before mutating anything: an out-of-range
        // vertex fails its own request, never its coalesced neighbours.
        std::vector<PendingRequest> valid;
        for (PendingRequest& pr : batch) {
          const auto bad = std::find_if(
              pr.req.updates.begin(), pr.req.updates.end(),
              [&](const WeightUpdate& u) {
                return u.v.v < 0 || u.v.v >= n;
              });
          if (bad == pr.req.updates.end()) {
            valid.push_back(std::move(pr));
            continue;
          }
          errors_counter += 1;
          reply_to(pr, err_line(pr.req.id,
                                "DELTA: vertex " + std::to_string(bad->v.v) +
                                    " out of range"));
        }
        batch = std::move(valid);  // `head` dangles; only `batch` is read
        if (batch.empty()) return;
        delta = apply_delta_batch(*gs, batch);
        break;
      }
      case RequestKind::kAdd:
        delta = apply_add(*gs, head);
        break;
      case RequestKind::kRemove:
        delta = apply_remove(*gs, head);
        break;
      case RequestKind::kSwap: {
        Hypergraph next = read_hmetis_file(head.path);
        if (next.num_vertices() == n) {
          // Same vertex space: keep the old assignment, let a full epoch
          // decide what moves. The old graph's cut says nothing about the
          // new one, so the baseline goes and the dispatch is full-tier.
          session.replace_structure(std::move(next), session.partition(),
                                    /*keep_baseline=*/false);
        } else {
          const Weight cut = session.bootstrap(
              std::move(next), make_repart_config(*gs).partition);
          dispatch = false;
          static_reply = ok_prefix(head.id) + " graph=" + graph + " n=" +
                         std::to_string(session.hypergraph().num_vertices()) +
                         " cut=" + std::to_string(cut) + " tier=static";
        }
        break;
      }
      case RequestKind::kRepart:
        break;  // unknown delta: full repartition
      case RequestKind::kLoad:
      case RequestKind::kInvalid:
        fail_batch("internal: unexpected request kind");
        return;
    }
    if (!dispatch) {
      reply_to(batch.front(), static_reply);
      return;
    }

    const GuardedRepartitionResult out = session.repartition(
        RepartAlgorithm::kHypergraphRepart, delta, make_repart_config(*gs));
    if (out.degraded) degraded_counter += 1;
    const std::string tail =
        " graph=" + graph +
        " cut=" + std::to_string(out.result.cost.comm_volume) +
        " mig=" + std::to_string(out.result.cost.migration_volume) +
        " tier=" + to_string(out.tier) +
        " degraded=" + (out.degraded ? std::string("1") : std::string("0")) +
        " retries=" + std::to_string(out.retries) +
        " coalesced=" + std::to_string(batch.size() - 1);
    for (const PendingRequest& pr : batch)
      reply_to(pr, ok_prefix(pr.req.id) + tail);
  } catch (const std::exception& e) {
    // A bad file path, a malformed hypergraph, an out-of-range vertex —
    // client-induced failures must fail the request, never the daemon.
    fail_batch(e.what());
  }
}

RepartitionerConfig Server::make_repart_config(const GraphState& gs) {
  RepartitionerConfig rcfg;
  rcfg.partition.num_parts = gs.k;
  rcfg.partition.epsilon = gs.epsilon;
  rcfg.partition.seed = cfg_.seed;
  rcfg.partition.num_threads = cfg_.num_threads;
  rcfg.partition.incremental = cfg_.incremental;
  rcfg.partition.check_level = cfg_.check_level;
  rcfg.partition.fault_plan = cfg_.fault_plan;
  rcfg.alpha = gs.alpha;
  rcfg.num_ranks = cfg_.num_ranks;
  rcfg.deadlock_timeout = cfg_.deadlock_timeout;
  rcfg.max_retries = cfg_.max_retries;
  rcfg.retry_backoff_seconds = cfg_.retry_backoff_seconds;
  rcfg.epoch_time_budget = cfg_.epoch_time_budget;
  rcfg.fallback = cfg_.fallback;
  rcfg.stop = &stop_;
  return rcfg;
}

EpochDelta Server::apply_delta_batch(
    GraphState& gs, const std::vector<PendingRequest>& batch) {
  // Compose every update in arrival order (last write per vertex wins),
  // then seed the epoch delta with the union of touched vertices, in
  // ascending order. O(updates log updates): no pass over all n vertices.
  // Every vertex is in range: execute_batch validated the run.
  EpochDelta delta;
  for (const PendingRequest& pr : batch) {
    for (const WeightUpdate& u : pr.req.updates) {
      gs.session.set_vertex_weight(u.v, u.w);
      delta.changed.push_back(u.v);
    }
  }
  std::sort(delta.changed.begin(), delta.changed.end());
  delta.changed.erase(std::unique(delta.changed.begin(), delta.changed.end()),
                      delta.changed.end());
  delta.known = true;
  return delta;
}

EpochDelta Server::apply_add(GraphState& gs, const Request& req) {
  const Hypergraph& h = gs.session.hypergraph();
  const Index old_n = h.num_vertices();
  const Index add_n = static_cast<Index>(req.add_weights.size());
  HypergraphBuilder b = rebuild_remapped(h, old_n + add_n, identity_remap(h));
  for (Index i = 0; i < add_n; ++i) {
    b.set_vertex_weight(old_n + i, req.add_weights[static_cast<std::size_t>(i)]);
    b.set_vertex_size(old_n + i, 1);
  }
  Partition next = gs.session.partition();
  next.assignment.resize(old_n + add_n, lightest_part(h, next));
  gs.session.replace_structure(b.finalize(), std::move(next),
                               /*keep_baseline=*/true);
  EpochDelta delta;
  for (Index i = 0; i < add_n; ++i)
    delta.changed.push_back(VertexId{old_n + i});
  delta.known = true;
  return delta;
}

EpochDelta Server::apply_remove(GraphState& gs, const Request& req) {
  const Hypergraph& h = gs.session.hypergraph();
  const Index old_n = h.num_vertices();
  IdVector<VertexId, bool> drop(old_n, false);
  for (const VertexId v : req.remove) {
    if (v.v < 0 || v.v >= old_n)
      throw std::invalid_argument("REMOVE: vertex " + std::to_string(v.v) +
                                  " out of range");
    drop[v] = true;
  }
  // Survivors sharing a net with a dropped vertex are the repair frontier.
  IdVector<VertexId, bool> touched(old_n, false);
  for (const VertexId v : h.vertices()) {
    if (!drop[v]) continue;
    for (const NetId net : h.incident_nets(v))
      for (const VertexId u : h.pins(net))
        if (!drop[u]) touched[u] = true;
  }
  IdVector<VertexId, Index> remap(old_n);
  Index new_n = 0;
  for (const VertexId v : h.vertices())
    remap[v] = drop[v] ? kInvalidIndex : new_n++;
  if (new_n == 0)
    throw std::invalid_argument("REMOVE: cannot drop every vertex");
  HypergraphBuilder b = rebuild_remapped(h, new_n, remap);
  Partition next(gs.session.partition().k, new_n);
  EpochDelta delta;
  for (const VertexId v : h.vertices()) {
    if (remap[v] == kInvalidIndex) continue;
    next[VertexId{remap[v]}] = gs.session.partition()[v];
    if (touched[v]) delta.changed.push_back(VertexId{remap[v]});
  }
  gs.session.replace_structure(b.finalize(), std::move(next),
                               /*keep_baseline=*/true);
  delta.removed = old_n - new_n;
  delta.known = true;
  return delta;
}

}  // namespace hgr::serve
