#include "graphpart/adaptive_repart.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "graphpart/gcoarsen.hpp"
#include "graphpart/grefine.hpp"
#include "partition/multilevel.hpp"

namespace hgr {

Partition adaptive_repartition(const Graph& g, const Partition& old_p,
                               const AdaptiveRepartConfig& cfg) {
  HGR_ASSERT(old_p.k == cfg.base.num_parts);
  HGR_ASSERT(old_p.num_vertices() == g.num_vertices());
  HGR_ASSERT(cfg.alpha >= 1);
  if (cfg.base.num_parts == 1 || g.num_vertices() == 0) return old_p;

  Rng rng(cfg.base.seed);
  const Index stop_size =
      std::max<Index>(cfg.base.coarsen_to, 4 * cfg.base.num_parts);
  const Weight max_vertex_weight =
      max_coarse_vertex_weight(g.total_vertex_weight(), stop_size, cfg.base);

  // Coarsen with same-old-part ("local") matching; the old assignment of a
  // coarse vertex is the shared old assignment of its constituents.
  struct Level {
    GraphCoarseLevel cl;
    Partition old_parts;  // old assignment at the *coarse* granularity
  };
  std::vector<Level> levels;
  const Graph* current = &g;
  const Partition* current_old = &old_p;
  for (Index level = 0; level < cfg.base.max_levels; ++level) {
    if (current->num_vertices() <= stop_size) break;
    const std::vector<Index> match = heavy_edge_matching(
        *current, max_vertex_weight, rng,
        // hgr-lint: raw-ok (graph layer keeps raw spans of part labels)
        std::span<const PartId>(current_old->assignment.raw()));
    Level next;
    next.cl = contract_graph(*current, match);
    const double reduction =
        1.0 - static_cast<double>(next.cl.coarse.num_vertices()) /
                  static_cast<double>(current->num_vertices());
    if (reduction < cfg.base.min_coarsen_reduction) break;
    next.old_parts =
        Partition(old_p.k, next.cl.coarse.num_vertices(), kNoPart);
    for (Index v = 0; v < current->num_vertices(); ++v) {
      const Index cv = next.cl.fine_to_coarse[static_cast<std::size_t>(v)];
      const PartId ov = (*current_old)[VertexId{v}];
      const VertexId cvv{cv};
      HGR_ASSERT_MSG(next.old_parts[cvv] == kNoPart ||
                         next.old_parts[cvv] == ov,
                     "local matching crossed old-part boundary");
      next.old_parts[cvv] = ov;
    }
    levels.push_back(std::move(next));
    current = &levels.back().cl.coarse;
    current_old = &levels.back().old_parts;
  }

  // Coarse initial solution: stay where you are; rebalance + refine with
  // the composite gain.
  Partition p = *current_old;
  GRefineOptions opt;
  opt.epsilon = cfg.base.epsilon;
  opt.max_passes = cfg.base.max_refine_passes;
  opt.alpha = cfg.alpha;

  {
    const Partition& old_here = *current_old;
    GRefineOptions o = opt;
    o.old_partition = &old_here;
    graph_kway_refine(*current, p, o, rng);
  }

  for (std::size_t i = levels.size(); i-- > 0;) {
    const Graph& finer = (i == 0) ? g : levels[i - 1].cl.coarse;
    const Partition& finer_old = (i == 0) ? old_p : levels[i - 1].old_parts;
    Partition fine_p(old_p.k, finer.num_vertices());
    for (Index v = 0; v < finer.num_vertices(); ++v)
      fine_p[VertexId{v}] = p[VertexId{
          levels[i].cl.fine_to_coarse[static_cast<std::size_t>(v)]}];
    p = std::move(fine_p);
    GRefineOptions o = opt;
    o.old_partition = &finer_old;
    graph_kway_refine(finer, p, o, rng);
  }
  p.validate();
  return p;
}

}  // namespace hgr
