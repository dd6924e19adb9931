#include "partition/multilevel.hpp"

#include <algorithm>
#include <cstdint>

#include "check/validate.hpp"
#include "obs/trace.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

Weight max_coarse_vertex_weight(Weight total_weight, Index stop_size,
                                const PartitionConfig& cfg) {
  return std::max<Weight>(
      1, static_cast<Weight>(cfg.max_coarse_weight_factor *
                             static_cast<double>(total_weight) /
                             std::max<Index>(1, stop_size)));
}

CoarseningLimits coarsening_limits(const Hypergraph& h,
                                   const PartitionConfig& cfg,
                                   Index min_stop) {
  CoarseningLimits limits;
  limits.stop_size = std::max<Index>(cfg.coarsen_to, min_stop);
  limits.max_vertex_weight =
      max_coarse_vertex_weight(h.total_vertex_weight(), limits.stop_size, cfg);
  return limits;
}

std::vector<CoarseLevel> build_hierarchy(const Hypergraph& h,
                                         const PartitionConfig& cfg,
                                         Index stop_size,
                                         const OneLevel& one_level,
                                         bool observe) {
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &h;
  for (Index level = 0; level < cfg.max_levels; ++level) {
    const Index fine_n = current->num_vertices();
    if (fine_n <= stop_size) break;
    CoarseLevel next = one_level(*current, level);
    const Index coarse_n = next.coarse.num_vertices();
    const double reduction =
        1.0 - static_cast<double>(coarse_n) / static_cast<double>(fine_n);
    if (reduction < cfg.min_coarsen_reduction) break;
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
      h, cfg, limits.stop_size, [&](const Hypergraph& current, Index) {
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
