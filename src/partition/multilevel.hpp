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

/// The coarsening stop rules of every multilevel loop, hypergraph and graph
/// alike. A loop coarsens while may_coarsen() holds, and drops a level, then
/// stops, once stalled() says its contraction barely shrank the vertex count.
struct CoarseningLimits {
  Index stop_size = 0;  // the coarsest level has at most this many vertices
  /// Heaviest vertex the matchers may still merge: a fixed multiple of the
  /// average weight of `stop_size` coarse vertices, at least 1. Keeps any
  /// one coarse vertex from unbalancing the coarse partition.
  Weight max_vertex_weight = 1;

  /// Whether the level at depth `level` (0 = the input), which has
  /// `vertices` vertices, is coarsened further: it is above stop_size and
  /// the level cap is not reached.
  bool may_coarsen(Index level, Index vertices) const;

  /// Whether contracting `fine` vertices to `coarse` shrank the count by
  /// less than the stall fraction (paper: 10%).
  static bool stalled(Index fine, Index coarse);
};

/// stop_size = max(100, min_stop): `min_stop` is the driver's floor on the
/// coarsest size (2k for a hypergraph k-way partition, 20 for a bisection,
/// 4k for the graph baselines). `total_weight` is the input's total vertex
/// weight.
CoarseningLimits coarsening_limits(Weight total_weight, Index min_stop);

/// Matches and contracts `current`, the hypergraph at depth `level` (0 = h).
using OneLevel = std::function<CoarseLevel(const Hypergraph& current,
                                           Index level)>;

/// Coarsen h until `limits` stop it: a level has at most stop_size
/// vertices, a contraction stalls (the stalled level is dropped, but its
/// matching has already drawn its random numbers), or the level cap is
/// reached. levels[i].coarse is the hypergraph at depth i + 1. Each kept
/// level bumps the coarsen.* counters and is validated at cfg.check_level —
/// unless `observe` is false, for ranks that must not count a replicated
/// level twice.
std::vector<CoarseLevel> build_hierarchy(const Hypergraph& h,
                                         const PartitionConfig& cfg,
                                         const CoarseningLimits& limits,
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
