// Runtime invariant validators (docs/CHECKING.md).
//
// Repartitioning is a silently-wrong-output domain: a buggy algorithm still
// prints a partition, it is just unbalanced, fixed-vertex-violating, or
// costed wrong. These validators recompute the invariants each pipeline
// stage is supposed to preserve and cross-check them against what the stage
// reported, gated by CheckLevel so production runs pay nothing.
//
// Failures are routed through the pluggable assertion handler in
// common/assert.hpp: the default prints a diagnostic (with operand values)
// and aborts; tests install ScopedAssertHandler and catch AssertionError.
#pragma once

#include "check/check_level.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/contract.hpp"

namespace hgr::check {

/// Optional cross-checks for validate_partition. Negative sentinel values
/// (and a null old_partition) mean "not provided, skip that check".
struct PartitionExpectations {
  /// Eq. 1 balance tolerance; >= 0 enforces the ceil-aware bound
  /// metrics/balance max_part_weight() up to vertex granularity (the
  /// provable guarantee of a move-based refiner is bound + heaviest
  /// vertex - 1; exact for unit weights). Parts whose fixed vertices
  /// alone exceed even that are exempt: no assignment can fix them.
  double epsilon = -1.0;

  /// Connectivity-1 cut the caller reported; cross-checked against a
  /// from-scratch recomputation at paranoid level.
  Weight reported_cut = -1;

  /// Previous assignment; enables the fixed == old-part sanity check the
  /// repartitioning model relies on and the migration cross-check.
  const Partition* old_partition = nullptr;

  /// Migration volume the caller reported (requires old_partition);
  /// cross-checked against a from-scratch recomputation at paranoid level.
  Weight reported_migration = -1;

  /// Phase name included in failure diagnostics.
  const char* context = "";
};

/// Partition invariants.
///   cheap:    one assignment per vertex, every part id in [0, k), fixed
///             vertices on their fixed part, balance bound (see above).
///   paranoid: adds cut recomputed from scratch (independent per-net
///             connectivity count) cross-checked against metrics/cut and
///             expect.reported_cut, and migration volume recomputed and
///             cross-checked against expect.reported_migration.
void validate_partition(const Hypergraph& h, const Partition& p,
                        CheckLevel level,
                        const PartitionExpectations& expect = {});

/// Conservation across one contraction step (fine -> level_data.coarse).
///   cheap:    fine_to_coarse total and in range, every coarse vertex hit,
///             total vertex weight and total vertex size conserved, fixed
///             labels conserved (each fine fixed vertex's coarse image
///             carries the same label; no label appears from nowhere).
///   paranoid: with coarse_partition given, the projected fine partition's
///             connectivity-1 cut equals the coarse cut — exact for this
///             contraction because dropped nets are single-pin (uncuttable)
///             and merged nets keep summed costs at equal connectivity.
void validate_coarsening(const Hypergraph& fine, const CoarseLevel& level_data,
                         CheckLevel level,
                         const Partition* coarse_partition = nullptr);

}  // namespace hgr::check
