// The multilevel driver behind every hypergraph partitioner (paper
// §4.1-4.4): coarsen into a hierarchy, partition the coarsest level, then
// project back up and refine at each level. Each entry point plugs in its
// own matcher + contractor and refiner; stop rules, stall detection, the
// coarsen.* counters and the per-level validators live here once
// (docs/ALGORITHMS.md, "Multilevel driver").
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "check/check_level.hpp"
#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"
#include "partition/contract.hpp"

namespace hgr {

/// Heaviest vertex the matchers may still merge: cfg.max_coarse_weight_factor
/// times the average weight of `stop_size` coarse vertices, at least 1.
/// Keeps any one coarse vertex from unbalancing the coarse partition. The
/// graph partitioners share it.
Weight max_coarse_vertex_weight(Weight total_weight, Index stop_size,
                                const PartitionConfig& cfg);

struct CoarseningLimits {
  Index stop_size = 0;           // coarsest level has at most this many
  Weight max_vertex_weight = 1;  // see max_coarse_vertex_weight
};

/// stop_size = max(cfg.coarsen_to, min_stop): `min_stop` is the driver's
/// floor on the coarsest size (2k for a k-way partition, 20 for a bisection).
CoarseningLimits coarsening_limits(const Hypergraph& h,
                                   const PartitionConfig& cfg, Index min_stop);

/// Matches and contracts `current`, the hypergraph at depth `level` (0 = h).
using OneLevel = std::function<CoarseLevel(const Hypergraph& current,
                                           Index level)>;

/// Coarsen h until a level has at most `stop_size` vertices, a contraction
/// shrinks the vertex count by less than cfg.min_coarsen_reduction (the
/// stalled level is dropped, but its matching has already drawn its random
/// numbers), or cfg.max_levels levels exist. levels[i].coarse is the
/// hypergraph at depth i + 1. Each kept level bumps the coarsen.* counters
/// and is validated at cfg.check_level — unless `observe` is false, for
/// ranks that must not count a replicated level twice.
std::vector<CoarseLevel> build_hierarchy(const Hypergraph& h,
                                         const PartitionConfig& cfg,
                                         Index stop_size,
                                         const OneLevel& one_level,
                                         bool observe = true);

/// build_hierarchy with the serial matcher: IPM matching drawing from
/// `rng`, then contract. `ws` pools both kernels' scratch across levels.
std::vector<CoarseLevel> build_ipm_hierarchy(const Hypergraph& h,
                                             const PartitionConfig& cfg,
                                             const CoarseningLimits& limits,
                                             Rng& rng, Workspace* ws);

/// The coarsest hypergraph of a hierarchy built on h.
inline const Hypergraph& coarsest(const Hypergraph& h,
                                  const std::vector<CoarseLevel>& levels) {
  return levels.empty() ? h : levels.back().coarse;
}

/// Refines p, a partition of `finer`, the hypergraph at depth `depth`.
using RefineLevel =
    std::function<void(const Hypergraph& finer, std::size_t depth)>;

/// Walk the hierarchy back up: at each level, validate the contraction
/// against p (at `check_level`), project p one level finer, then refine.
/// p partitions coarsest(h, levels) on entry and h on return.
void uncoarsen(const Hypergraph& h, const std::vector<CoarseLevel>& levels,
               Partition& p, check::CheckLevel check_level,
               const RefineLevel& refine);

}  // namespace hgr
