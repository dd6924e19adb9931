#include "partition/multilevel.hpp"

#include <algorithm>
#include <cstdint>

#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

namespace {

// Coarsening stops at max(kCoarsenTo, min_stop) vertices (paper: "less
// than 2k"), after kMaxLevels levels, or once a contraction shrinks the
// vertex count by less than kMinCoarsenReduction (paper: 10%).
constexpr Index kCoarsenTo = 100;
constexpr Index kMaxLevels = 60;
constexpr double kMinCoarsenReduction = 0.10;
// Vertices heavier than kMaxCoarseWeightFactor * (total / stop_size) are
// not merged further.
constexpr double kMaxCoarseWeightFactor = 1.5;

}  // namespace

bool CoarseningLimits::may_coarsen(Index level, Index vertices) const {
  return level < kMaxLevels && vertices > stop_size;
}

bool CoarseningLimits::stalled(Index fine, Index coarse) {
  const double reduction =
      1.0 - static_cast<double>(coarse) / static_cast<double>(fine);
  return reduction < kMinCoarsenReduction;
}

CoarseningLimits coarsening_limits(Weight total_weight, Index min_stop) {
  CoarseningLimits limits;
  limits.stop_size = std::max<Index>(kCoarsenTo, min_stop);
  limits.max_vertex_weight = std::max<Weight>(
      1, static_cast<Weight>(kMaxCoarseWeightFactor *
                             static_cast<double>(total_weight) /
                             std::max<Index>(1, limits.stop_size)));
  return limits;
}

std::vector<CoarseLevel> build_hierarchy(const Hypergraph& h,
                                         const PartitionConfig& cfg,
                                         const CoarseningLimits& limits,
                                         const OneLevel& one_level,
                                         bool observe) {
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &h;
  for (Index level = 0; limits.may_coarsen(level, current->num_vertices());
       ++level) {
    const Index fine_n = current->num_vertices();
    CoarseLevel next = one_level(*current, level);
    const Index coarse_n = next.coarse.num_vertices();
    if (CoarseningLimits::stalled(fine_n, coarse_n)) break;
    if (observe) {
      // Contraction merges matched pairs only (contract asserts that the
      // matching is an involution): each pair removes one vertex.
      static obs::CachedCounter levels_counter("coarsen.levels");
      static obs::CachedCounter fine_counter("coarsen.fine_vertices");
      static obs::CachedCounter coarse_counter("coarsen.coarse_vertices");
      static obs::CachedCounter matched_counter("coarsen.matched_vertices");
      levels_counter += 1;
      fine_counter += static_cast<std::uint64_t>(fine_n);
      coarse_counter += static_cast<std::uint64_t>(coarse_n);
      matched_counter += 2 * static_cast<std::uint64_t>(fine_n - coarse_n);
      check::validate_coarsening(*current, next, cfg.check_level);
    }
    levels.push_back(std::move(next));
    current = &levels.back().coarse;
  }
  return levels;
}

std::vector<CoarseLevel> build_ipm_hierarchy(const Hypergraph& h,
                                             const PartitionConfig& cfg,
                                             const CoarseningLimits& limits,
                                             Rng& rng, Workspace* ws) {
  return build_hierarchy(
      h, cfg, limits, [&](const Hypergraph& current, Index) {
        return contract(
            current,
            ipm_matching(current, cfg, limits.max_vertex_weight, rng, ws), ws);
      });
}

void uncoarsen(const Hypergraph& h, const std::vector<CoarseLevel>& levels,
               Partition& p, check::CheckLevel check_level,
               const RefineLevel& refine) {
  for (std::size_t i = levels.size(); i-- > 0;) {
    const Hypergraph& finer = i == 0 ? h : levels[i - 1].coarse;
    check::validate_coarsening(finer, levels[i], check_level, &p);
    Partition fine_p(p.k, finer.num_vertices());
    for (const VertexId v : finer.vertices())
      fine_p[v] = p[levels[i].fine_to_coarse[v]];
    p = std::move(fine_p);
    refine(finer, i);
  }
}

}  // namespace hgr
