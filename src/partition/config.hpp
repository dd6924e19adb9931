// Configuration for the multilevel hypergraph partitioner.
#pragma once

#include <cstdint>
#include <memory>

#include "check/check_level.hpp"
#include "common/types.hpp"

namespace hgr {

namespace fault {
class FaultPlan;
}

enum class KwayMethod {
  kRecursiveBisection,  // Zoltan's production path (paper Section 4.4)
  kDirectKway,          // extension: direct k-way coarse + k-way FM
};

/// Two-tier epoch routing (docs/INCREMENTAL.md): whether an epoch may be
/// served by the O(delta) incremental fast path instead of a full V-cycle.
enum class IncrementalMode {
  kOff,   // every epoch runs the full repartitioner (default)
  kAuto,  // fast path when the epoch delta is small; escalates on drift
  kOn,    // fast path whenever a baseline exists, regardless of delta size
};

const char* to_string(IncrementalMode mode);

struct PartitionConfig {
  Index num_parts = 2;

  /// Eq. 1 imbalance tolerance epsilon.
  double epsilon = 0.05;

  /// Seed for every randomized stage; same seed => identical partition.
  std::uint64_t seed = 1;

  /// Vertices with degree above this sit out IPM matching entirely (the
  /// mutual-proposal rounds need both endpoints to score each other, so a
  /// vertex too expensive to score cannot be a partner either); guards
  /// against quadratic blowup on hubs such as the repartitioning model's
  /// partition vertices.
  Index max_matching_degree = 4096;

  /// Shared-memory threads per rank for the thread-parallel kernels
  /// (matching, contraction, k-way refinement). Composes with the rank
  /// count of a parallel run: p ranks x num_threads threads. Results are
  /// bit-identical for any value (docs/PARALLELISM.md).
  Index num_threads = 1;

  /// Nets larger than this are ignored while scoring inner products (their
  /// contribution to the match quality is negligible and they are costly).
  Index max_scored_net_size = 1024;

  /// Randomized greedy-hypergraph-growing restarts at the coarsest level.
  Index num_initial_trials = 8;

  /// FM pass-pairs per uncoarsening level.
  Index max_refine_passes = 4;

  KwayMethod kway_method = KwayMethod::kRecursiveBisection;

  /// Extra direct k-way refinement sweep over the final partition.
  bool kway_postpass = false;

  /// Additional V-cycles: restricted re-coarsening + refinement of the
  /// final k-way partition (quality extension, costs time).
  Index num_vcycles = 0;

  /// Two-tier epoch routing: see IncrementalMode. The fast path applies
  /// bounded greedy moves through the gain cache; it escalates to the full
  /// V-cycle when the epoch delta or the accumulated drift crosses the
  /// thresholds below (docs/INCREMENTAL.md).
  IncrementalMode incremental = IncrementalMode::kOff;

  /// Escalate when (incremental cut - last full-tier cut) / max(1, last
  /// full-tier cut) exceeds this fraction.
  double incremental_max_drift = 0.10;

  /// kAuto only: epochs whose changed+removed vertex fraction exceeds this
  /// go straight to the full tier (the fast path is O(delta); a large
  /// delta is a full repartition in disguise).
  double incremental_max_delta_frac = 0.02;

  /// Runtime invariant verification (src/check/): validators run at every
  /// coarsening level, after every (re)partitioning stage, and per epoch.
  /// kOff (default) costs nothing; see docs/CHECKING.md.
  check::CheckLevel check_level = check::CheckLevel::kOff;

  /// Deterministic fault-injection schedule (fault/fault_plan.hpp) that
  /// parallel runs install on their communicator; null (default) injects
  /// nothing. See docs/ROBUSTNESS.md.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
};

}  // namespace hgr
