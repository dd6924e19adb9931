// High-level repartitioning API: the library's headline entry points.
//
// hypergraph_repartition() is the paper's new method ("Zoltan-repart"):
// build the augmented repartitioning hypergraph and solve it with the
// fixed-vertex multilevel partitioner, directly minimizing
// alpha * communication + migration.
//
// The other three paper algorithms (hypergraph scratch, graph adaptive
// repartitioning, graph scratch) are exposed behind the same signature so
// the experiment harness and applications can swap strategies.
#pragma once

#include <string>

#include "common/stop_token.hpp"
#include "core/migration_plan.hpp"
#include "hypergraph/graph.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"

namespace hgr {

/// What run_repartition_with_policy falls back to once retries are
/// exhausted (docs/ROBUSTNESS.md). A stale partition beats a dead run: the
/// paper's premise is an application that keeps computing across epochs.
enum class EpochFallback {
  /// Keep the previous assignment: zero migration, cut recomputed on the
  /// epoch hypergraph so reported costs stay honest.
  kKeepOld,
  /// Serial scratch partition + remap — never touches the comm runtime.
  /// If the scratch attempt itself fails, degrades further to kKeepOld.
  kScratch,
};

struct RepartitionerConfig {
  PartitionConfig partition;
  /// Iterations per epoch: the communication-vs-migration trade-off knob.
  Weight alpha = 100;

  // --- parallel execution + graceful degradation (docs/ROBUSTNESS.md) ---

  /// >0: hypergraph_repartition solves the augmented model on the
  /// in-process parallel runtime with this many ranks (the surface fault
  /// plans perturb); 0 (default) keeps every algorithm serial.
  int num_ranks = 0;
  /// Watchdog timeout for the parallel path (seconds; 0 disables). An
  /// injected stall only surfaces as CommDeadlock while this is nonzero.
  double deadlock_timeout = 30.0;
  /// Failed repartition attempts are retried up to this many times before
  /// the epoch degrades to `fallback`.
  int max_retries = 1;
  /// Wait retry_backoff_seconds * 2^r before retry r (0 = no backoff).
  /// The exponent is capped and the shift computed in 64 bits, so absurd
  /// max_retries values saturate instead of hitting shift UB.
  double retry_backoff_seconds = 0.0;
  /// Per-attempt wall budget (seconds; 0 = unlimited). An attempt that
  /// completes but overruns the budget is NOT retried — rerunning the same
  /// full-cost attempt would burn a multiple of the budget while the epoch
  /// is already late. The policy degrades to `fallback` immediately and
  /// counts the event under epoch.over_budget.
  double epoch_time_budget = 0.0;
  EpochFallback fallback = EpochFallback::kKeepOld;
  /// Optional cooperative cancellation (common/stop_token.hpp). When set,
  /// retry backoffs wait on the token (interruptible) instead of a plain
  /// sleep, and a requested stop degrades the epoch straight to keep-old —
  /// hgr_serve points this at its shutdown flag so stopping the daemon
  /// never blocks on a backoff in flight. Not owned; may be null.
  StopToken* stop = nullptr;
};

struct RepartitionResult {
  Partition partition;
  MigrationPlan plan;
  RepartitionCost cost;   // measured on the epoch hypergraph/graph
  double seconds = 0.0;   // repartitioning wall time (Figures 7-8)
};

/// The paper's method: repartitioning via hypergraph partitioning with
/// fixed vertices on the augmented model ("Zoltan-repart"). The model is
/// solved serially, or by parallel_partition_hypergraph on cfg.num_ranks
/// ranks when that is > 0; either way the decoded answer is checked
/// against the model identity cut = alpha * comm + migration.
RepartitionResult hypergraph_repartition(const Hypergraph& h,
                                         const Partition& old_p,
                                         const RepartitionerConfig& cfg);

/// Hypergraph partitioning from scratch + remap ("Zoltan-scratch").
RepartitionResult hypergraph_scratch(const Hypergraph& h,
                                     const Partition& old_p,
                                     const RepartitionerConfig& cfg);

/// Graph adaptive repartitioning ("ParMETIS-repart" / AdaptiveRepart).
RepartitionResult graph_repartition(const Graph& g, const Partition& old_p,
                                    const RepartitionerConfig& cfg);

/// Graph partitioning from scratch + remap ("ParMETIS-scratch" / Partkway).
RepartitionResult graph_scratch(const Graph& g, const Partition& old_p,
                                const RepartitionerConfig& cfg);

/// The four algorithms compared in the paper's Section 5.
enum class RepartAlgorithm {
  kHypergraphRepart,   // Zoltan-repart   (this paper)
  kGraphRepart,        // ParMETIS-repart (AdaptiveRepart analog)
  kHypergraphScratch,  // Zoltan-scratch
  kGraphScratch,       // ParMETIS-scratch (Partkway analog)
};

std::string to_string(RepartAlgorithm algorithm);

/// Dispatch over both representations of the same epoch problem: the
/// hypergraph algorithms consume h, the graph algorithms g. Costs are
/// always evaluated on h so the four bars are directly comparable (on the
/// symmetric 2-pin instances of the evaluation, connectivity-1 cut and
/// edge cut agree).
RepartitionResult run_repartition_algorithm(RepartAlgorithm algorithm,
                                            const Hypergraph& h,
                                            const Graph& g,
                                            const Partition& old_p,
                                            const RepartitionerConfig& cfg);

/// Which tier of the two-tier epoch system produced a partition
/// (docs/INCREMENTAL.md). kStatic is the bootstrap epoch; kFull is a full
/// repartition (V-cycle / scratch / graph algorithm); kIncremental is the
/// O(delta) gain-cache fast path.
enum class RepartTier { kStatic, kFull, kIncremental };

const char* to_string(RepartTier tier);

/// A repartitioning decision plus how it was reached: how many failed
/// attempts preceded it and whether it came from the degradation fallback
/// instead of the requested algorithm.
struct GuardedRepartitionResult {
  RepartitionResult result;
  Index retries = 0;      // failed attempts before `result`
  bool degraded = false;  // true: `result` is the fallback's, not the
                          // algorithm's
  std::string error;      // what() of the last failure ("" when clean)
  RepartTier tier = RepartTier::kFull;
  /// True when the incremental fast path was attempted (moves applied) but
  /// abandoned for drift/imbalance, falling through to the full tier.
  bool escalated = false;
  /// Why the fast path was not the final answer ("" when it was, or when
  /// incremental routing was off).
  std::string tier_reason;
};

/// run_repartition_algorithm wrapped in the graceful-degradation policy:
/// attempts (parallel when cfg.num_ranks > 0 and the algorithm is
/// kHypergraphRepart) are retried with exponential backoff on any thrown
/// failure (CommAborted, CommDeadlock, FaultInjected, ...); once
/// cfg.max_retries are exhausted the epoch degrades to cfg.fallback
/// instead of killing the run. An attempt that completes over
/// cfg.epoch_time_budget degrades immediately without retry, and a
/// cfg.stop request interrupts backoff waits and skips further attempts.
/// Bumps the epoch.repart_failures / epoch.retries / epoch.over_budget /
/// epoch.degraded counters. See docs/ROBUSTNESS.md.
GuardedRepartitionResult run_repartition_with_policy(
    RepartAlgorithm algorithm, const Hypergraph& h, const Graph& g,
    const Partition& old_p, const RepartitionerConfig& cfg);

}  // namespace hgr
