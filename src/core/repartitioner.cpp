#include "core/repartitioner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/assert.hpp"
#include "common/timer.hpp"
#include "core/repartition_model.hpp"
#include "graphpart/gpartitioner.hpp"
#include "graphpart/scratch_remap.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"

namespace hgr {

namespace {

/// The move from old_p to new_p, costed on `g` (a Hypergraph or a Graph).
template <typename G>
RepartitionResult finish(const G& g, const Partition& old_p, Partition new_p,
                         Weight alpha, double seconds) {
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
  Partition augmented_p;
  if (cfg.num_ranks > 0) {
    ParallelPartitionConfig pcfg;
    pcfg.num_ranks = cfg.num_ranks;
    pcfg.base = cfg.partition;
    pcfg.deadlock_timeout = cfg.deadlock_timeout;
    augmented_p =
        parallel_partition_hypergraph(model.augmented, pcfg).partition;
  } else {
    augmented_p = partition_hypergraph(model.augmented, cfg.partition);
  }
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
  Partition new_p = adaptive_repartition(g, old_p, cfg.partition, cfg.alpha);
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
      RepartitionResult r =
          run_repartition_algorithm(algorithm, h, g, old_p, cfg);
      if (cfg.epoch_time_budget > 0.0 && r.seconds > cfg.epoch_time_budget) {
        // Over budget is non-retryable: the attempt *completed*, it was
        // just too slow, and rerunning the same full-cost computation
        // would burn another budget multiple while the epoch is already
        // late. Counted separately from thrown failures.
        out.error = "repartition attempt took " + std::to_string(r.seconds) +
                    "s, over the per-epoch budget of " +
                    std::to_string(cfg.epoch_time_budget) + "s";
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
      out.result = hypergraph_scratch(h, old_p, cfg);
      out.result.seconds = timer.seconds();
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();  // fall through to keep-old: the last resort
    }
  }
  // The terminal fallback: keep the previous assignment. Zero migration by
  // construction; the cut is recomputed on the epoch hypergraph so the
  // record stays honest about what a stale partition costs.
  out.result = finish(h, old_p, old_p, cfg.alpha, 0.0);
  out.result.seconds = timer.seconds();
  return out;
}

}  // namespace hgr
