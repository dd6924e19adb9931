// Public entry point of the serial multilevel hypergraph partitioner.
//
// Supports partitioning with fixed vertices (the capability the paper's
// repartitioning model depends on), recursive bisection (Zoltan's path) or
// direct k-way, optional k-way refinement post-pass, and optional V-cycles.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"

namespace hgr {

/// Compute a k-way partition of h honoring h.fixed_part() constraints and
/// the Eq. 1 balance tolerance cfg.epsilon (best effort when fixed vertices
/// make strict balance unattainable). Deterministic for fixed
/// (h, cfg) including cfg.seed.
Partition partition_hypergraph(const Hypergraph& h,
                               const PartitionConfig& cfg);

/// Direct k-way multilevel partitioning (extension / ablation path):
/// IPM coarsening, greedy k-way coarse assignment, k-way refinement on
/// every level. `ws` (optional) pools kernel scratch across levels.
Partition direct_kway_partition(const Hypergraph& h,
                                const PartitionConfig& cfg,
                                Workspace* ws = nullptr);

/// One refinement V-cycle: re-coarsen with matches restricted to vertices
/// in the same part (so the partition projects exactly), refine the coarse
/// partition, project back and refine each level. Improves p in place;
/// never worsens the cut.
void refinement_vcycle(const Hypergraph& h, Partition& p,
                       const PartitionConfig& cfg, Rng& rng,
                       Workspace* ws = nullptr);

}  // namespace hgr
