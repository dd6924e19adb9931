#include "core/repartitioner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/assert.hpp"
#include "common/timer.hpp"
#include "core/incremental_repart.hpp"
#include "core/repartition_model.hpp"
#include "graphpart/scratch_remap.hpp"
#include "metrics/migration.hpp"
#include "obs/critical_path.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"

namespace hgr {

namespace {

RepartitionResult finish(const Hypergraph& h, const Partition& old_p,
                         Partition new_p, Weight alpha, double seconds) {
  RepartitionResult result;
  result.cost = evaluate_repartition(h, old_p, new_p, alpha);
  result.plan = extract_migration_plan(h.vertex_sizes(), old_p, new_p);
  result.partition = std::move(new_p);
  result.seconds = seconds;
  return result;
}

RepartitionResult finish(const Graph& g, const Partition& old_p,
                         Partition new_p, Weight alpha, double seconds) {
  RepartitionResult result;
  result.cost = evaluate_repartition(g, old_p, new_p, alpha);
  result.plan = extract_migration_plan(g.vertex_sizes(), old_p, new_p);
  result.partition = std::move(new_p);
  result.seconds = seconds;
  return result;
}

}  // namespace

RepartitionResult hypergraph_repartition(const Hypergraph& h,
                                         const Partition& old_p,
                                         const RepartitionerConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.partition.num_parts);
  WallTimer timer;
  const RepartitionModel model =
      build_repartition_model(h, old_p, cfg.alpha);
  const Partition augmented_p =
      partition_hypergraph(model.augmented, cfg.partition);
  Partition new_p = decode_augmented_partition(model, augmented_p);
  const double seconds = timer.seconds();

  // The model identity is exact; assert it on every production call.
  const RepartitionCost split =
      split_augmented_cut(model, augmented_p, old_p);
  RepartitionResult result =
      finish(h, old_p, std::move(new_p), cfg.alpha, seconds);
  HGR_ASSERT_MSG(split.comm_volume == result.cost.comm_volume &&
                     split.migration_volume == result.cost.migration_volume,
                 "augmented cut does not match measured cost");
  return result;
}

RepartitionResult hypergraph_scratch(const Hypergraph& h,
                                     const Partition& old_p,
                                     const RepartitionerConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.partition.num_parts);
  WallTimer timer;
  Partition new_p = hypergraph_scratch_remap(h, old_p, cfg.partition);
  return finish(h, old_p, std::move(new_p), cfg.alpha, timer.seconds());
}

RepartitionResult graph_repartition(const Graph& g, const Partition& old_p,
                                    const RepartitionerConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.partition.num_parts);
  WallTimer timer;
  AdaptiveRepartConfig acfg;
  acfg.base = cfg.partition;
  acfg.alpha = cfg.alpha;
  Partition new_p = adaptive_repartition(g, old_p, acfg);
  return finish(g, old_p, std::move(new_p), cfg.alpha, timer.seconds());
}

RepartitionResult graph_scratch(const Graph& g, const Partition& old_p,
                                const RepartitionerConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.partition.num_parts);
  WallTimer timer;
  Partition new_p = graph_scratch_remap(g, old_p, cfg.partition);
  return finish(g, old_p, std::move(new_p), cfg.alpha, timer.seconds());
}

const char* to_string(RepartTier tier) {
  switch (tier) {
    case RepartTier::kStatic:
      return "static";
    case RepartTier::kFull:
      return "full";
    case RepartTier::kIncremental:
      return "incremental";
  }
  return "unknown";
}

std::string to_string(RepartAlgorithm algorithm) {
  switch (algorithm) {
    case RepartAlgorithm::kHypergraphRepart:
      return "hg-repart";
    case RepartAlgorithm::kGraphRepart:
      return "graph-repart";
    case RepartAlgorithm::kHypergraphScratch:
      return "hg-scratch";
    case RepartAlgorithm::kGraphScratch:
      return "graph-scratch";
  }
  return "unknown";
}

RepartitionResult run_repartition_algorithm(RepartAlgorithm algorithm,
                                            const Hypergraph& h,
                                            const Graph& g,
                                            const Partition& old_p,
                                            const RepartitionerConfig& cfg) {
  RepartitionResult result;
  switch (algorithm) {
    case RepartAlgorithm::kHypergraphRepart:
      result = hypergraph_repartition(h, old_p, cfg);
      break;
    case RepartAlgorithm::kHypergraphScratch:
      result = hypergraph_scratch(h, old_p, cfg);
      break;
    case RepartAlgorithm::kGraphRepart:
      result = graph_repartition(g, old_p, cfg);
      break;
    case RepartAlgorithm::kGraphScratch:
      result = graph_scratch(g, old_p, cfg);
      break;
  }
  // Re-evaluate the graph algorithms' costs on the hypergraph so every
  // algorithm reports the same communication-volume metric.
  if (algorithm == RepartAlgorithm::kGraphRepart ||
      algorithm == RepartAlgorithm::kGraphScratch) {
    result.cost =
        evaluate_repartition(h, old_p, result.partition, cfg.alpha);
  }
  return result;
}

namespace {

/// One attempt: the parallel runtime for the paper's method when
/// cfg.num_ranks > 0 (the path fault plans can perturb), the serial
/// dispatch otherwise. Throws whatever the attempt throws.
RepartitionResult attempt_repartition(RepartAlgorithm algorithm,
                                      const Hypergraph& h, const Graph& g,
                                      const Partition& old_p,
                                      const RepartitionerConfig& cfg) {
  if (cfg.num_ranks > 0 &&
      algorithm == RepartAlgorithm::kHypergraphRepart) {
    ParallelPartitionConfig pcfg;
    pcfg.num_ranks = cfg.num_ranks;
    pcfg.base = cfg.partition;
    pcfg.deadlock_timeout = cfg.deadlock_timeout;
    ParallelPartitionResult pr =
        parallel_hypergraph_repartition(h, old_p, cfg.alpha, pcfg);
    RepartitionResult result;
    result.cost = evaluate_repartition(h, old_p, pr.partition, cfg.alpha);
    result.plan =
        extract_migration_plan(h.vertex_sizes(), old_p, pr.partition);
    result.partition = std::move(pr.partition);
    result.seconds = pr.seconds;
    return result;
  }
  return run_repartition_algorithm(algorithm, h, g, old_p, cfg);
}

/// Serial tiers have no per-rank timeline, so the parallel runtime never
/// opens a span for them. Record the whole tier as a one-rank span instead:
/// the critical-path section stays populated (rank 0, zero wait) whichever
/// tier handled the epoch.
void record_serial_epoch_span(const char* phase, double seconds) {
  const std::uint64_t span = obs::begin_epoch_span();
  obs::record_rank_phase(span, 0, phase, seconds, 0.0);
  obs::end_epoch_span(span);
}

/// True when run_repartition_with_policy dispatches to the parallel
/// runtime, which records its own per-rank critical-path span.
bool uses_parallel_runtime(RepartAlgorithm algorithm,
                           const RepartitionerConfig& cfg) {
  return cfg.num_ranks > 0 &&
         algorithm == RepartAlgorithm::kHypergraphRepart;
}

/// The terminal fallback: keep the previous assignment. Zero migration by
/// construction; the cut is recomputed on the epoch hypergraph so the
/// record stays honest about what a stale partition costs.
RepartitionResult keep_old_partition(const Hypergraph& h,
                                     const Partition& old_p, Weight alpha) {
  RepartitionResult result;
  result.cost = evaluate_repartition(h, old_p, old_p, alpha);
  result.plan = extract_migration_plan(h.vertex_sizes(), old_p, old_p);
  result.partition = old_p;
  return result;
}

/// Exponential backoff before retry `attempt` (1-based). The exponent is
/// capped — 2^30 backoff units is already beyond any plausible schedule —
/// and the shift is computed in int64_t, so max_retries >= 31 saturates
/// instead of hitting signed-shift UB. With a stop token the wait rides the
/// token's condition variable; returns true when stop was requested during
/// (or before) the wait.
bool backoff_before_retry(const RepartitionerConfig& cfg, int attempt) {
  if (cfg.retry_backoff_seconds <= 0.0)
    return cfg.stop != nullptr && cfg.stop->stop_requested();
  const int exponent = std::min(attempt - 1, 30);
  const double delay = cfg.retry_backoff_seconds *
                       static_cast<double>(std::int64_t{1} << exponent);
  if (cfg.stop != nullptr) return cfg.stop->wait_for(delay);
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  return false;
}

}  // namespace

GuardedRepartitionResult run_repartition_with_policy(
    RepartAlgorithm algorithm, const Hypergraph& h, const Graph& g,
    const Partition& old_p, const RepartitionerConfig& cfg) {
  GuardedRepartitionResult out;
  const int attempts = std::max(0, cfg.max_retries) + 1;
  static obs::CachedCounter retries_counter("epoch.retries");
  static obs::CachedCounter failures_counter("epoch.repart_failures");
  static obs::CachedCounter over_budget_counter("epoch.over_budget");
  int performed = 0;        // attempts actually run
  bool stopped = false;     // cfg.stop fired: skip straight to keep-old
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (cfg.stop != nullptr && cfg.stop->stop_requested()) {
      out.error = "repartition stopped before attempt";
      stopped = true;
      break;
    }
    if (attempt > 0) {
      if (backoff_before_retry(cfg, attempt)) {
        // The owner's stop flag fired mid-backoff: abandon the retry and
        // degrade to the cheap fallback so shutdown never waits out a
        // backoff schedule.
        out.error = "repartition stopped during retry backoff";
        stopped = true;
        break;
      }
      retries_counter += 1;
    }
    ++performed;
    try {
      RepartitionResult r = attempt_repartition(algorithm, h, g, old_p, cfg);
      if (cfg.epoch_time_budget > 0.0 && r.seconds > cfg.epoch_time_budget) {
        // Over budget is non-retryable: the attempt *completed*, it was
        // just too slow, and rerunning the same full-cost computation
        // would burn another budget multiple while the epoch is already
        // late. Counted separately from thrown failures.
        out.error = RepartitionOverBudget(r.seconds, cfg.epoch_time_budget)
                        .what();
        over_budget_counter += 1;
        if (obs::events_enabled())
          obs::emit_instant("epoch.over_budget", "epoch");
        break;
      }
      out.result = std::move(r);
      out.retries = attempt;
      return out;
    } catch (const std::exception& e) {
      // Retryable by policy: a misbehaving rank (CommAborted /
      // FaultInjected), a hung collective (CommDeadlock) — anything
      // short of killing the epoch loop.
      out.error = e.what();
      failures_counter += 1;
      // Mark the failure on the timeline so the aborted attempt's tail is
      // attributable in --chrome-trace output (the export also closes any
      // spans the dying attempt left open).
      if (obs::events_enabled())
        obs::emit_instant("epoch.repart_failure", "epoch");
    }
  }

  // Attempts exhausted, over budget, or stopped: degrade instead of
  // aborting the run. The fallback never touches the comm runtime, so a
  // poisoned fault plan or wedged parallel path cannot take it down too.
  out.degraded = true;
  out.retries = std::max(0, performed - 1);
  obs::counter("epoch.degraded") += 1;
  if (obs::events_enabled()) obs::emit_instant("epoch.degraded", "epoch");
  WallTimer timer;
  if (cfg.fallback == EpochFallback::kScratch && !stopped) {
    try {
      RepartitionerConfig serial = cfg;
      serial.num_ranks = 0;
      out.result = hypergraph_scratch(h, old_p, serial);
      out.result.seconds = timer.seconds();
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();  // fall through to keep-old: the last resort
    }
  }
  out.result = keep_old_partition(h, old_p, cfg.alpha);
  out.result.seconds = timer.seconds();
  return out;
}

GuardedRepartitionResult run_tiered_repartition(
    RepartAlgorithm algorithm, const Hypergraph& h, const Graph& g,
    const Partition& old_p, const RepartitionerConfig& cfg,
    IncrementalRepartitioner& inc, const EpochDelta& delta) {
  // The fast path repairs a hypergraph partition through the gain cache;
  // graph-family algorithms keep their own full pipelines.
  const bool hypergraph_family =
      algorithm == RepartAlgorithm::kHypergraphRepart ||
      algorithm == RepartAlgorithm::kHypergraphScratch;
  if (cfg.partition.incremental != IncrementalMode::kOff &&
      hypergraph_family && old_p.k == cfg.partition.num_parts) {
    IncrementalOutcome fast = inc.try_epoch(h, old_p, delta, cfg);
    if (fast.accepted) {
      GuardedRepartitionResult out;
      out.tier = RepartTier::kIncremental;
      // The fast path's cut is maintained by the gain cache (try_epoch
      // checks it against connectivity_cut at paranoid): only the
      // migration volume needs a pass, and that one is O(n), not O(pins).
      out.result.cost.alpha = cfg.alpha;
      out.result.cost.comm_volume = fast.cut;
      out.result.cost.migration_volume =
          migration_volume(h.vertex_sizes(), old_p, fast.partition);
      out.result.plan =
          extract_migration_plan(h.vertex_sizes(), old_p, fast.partition);
      out.result.partition = std::move(fast.partition);
      out.result.seconds = fast.seconds;
      obs::counter("epoch.tier_incremental") += 1;
      obs::histogram("epoch.incremental_ns")
          .record(static_cast<std::int64_t>(fast.seconds * 1e9));
      record_serial_epoch_span("incremental", fast.seconds);
      return out;
    }
    GuardedRepartitionResult out =
        run_repartition_with_policy(algorithm, h, g, old_p, cfg);
    out.tier = RepartTier::kFull;
    out.escalated = fast.attempted;
    out.tier_reason = fast.reason;
    if (fast.attempted) obs::counter("epoch.escalations") += 1;
    obs::counter("epoch.tier_full") += 1;
    obs::histogram("epoch.full_ns")
        .record(static_cast<std::int64_t>(out.result.seconds * 1e9));
    if (!uses_parallel_runtime(algorithm, cfg))
      record_serial_epoch_span("full", out.result.seconds);
    inc.note_full(out.result.cost.comm_volume);
    return out;
  }
  GuardedRepartitionResult out =
      run_repartition_with_policy(algorithm, h, g, old_p, cfg);
  obs::counter("epoch.tier_full") += 1;
  obs::histogram("epoch.full_ns")
      .record(static_cast<std::int64_t>(out.result.seconds * 1e9));
  if (!uses_parallel_runtime(algorithm, cfg))
    record_serial_epoch_span("full", out.result.seconds);
  inc.note_full(out.result.cost.comm_volume);
  return out;
}

}  // namespace hgr
