#include "graphpart/gpartitioner.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "graphpart/gcoarsen.hpp"
#include "graphpart/ginitial.hpp"
#include "graphpart/grefine.hpp"
#include "partition/multilevel.hpp"

namespace hgr {

Partition partition_graph(const Graph& g, const PartitionConfig& cfg) {
  HGR_ASSERT(cfg.num_parts >= 1);
  if (cfg.num_parts == 1 || g.num_vertices() == 0)
    return Partition(std::max<Index>(1, cfg.num_parts), g.num_vertices());

  Rng rng(cfg.seed);
  const Index stop_size = std::max<Index>(cfg.coarsen_to, 4 * cfg.num_parts);
  const Weight max_vertex_weight =
      max_coarse_vertex_weight(g.total_vertex_weight(), stop_size, cfg);

  std::vector<GraphCoarseLevel> levels;
  const Graph* current = &g;
  for (Index level = 0; level < cfg.max_levels; ++level) {
    if (current->num_vertices() <= stop_size) break;
    const std::vector<Index> match =
        heavy_edge_matching(*current, max_vertex_weight, rng);
    GraphCoarseLevel next = contract_graph(*current, match);
    const double reduction =
        1.0 - static_cast<double>(next.coarse.num_vertices()) /
                  static_cast<double>(current->num_vertices());
    if (reduction < cfg.min_coarsen_reduction) break;
    levels.push_back(std::move(next));
    current = &levels.back().coarse;
  }

  Partition p = initial_graph_partition(*current, cfg, rng);

  GRefineOptions opt;
  opt.epsilon = cfg.epsilon;
  opt.max_passes = cfg.max_refine_passes;
  graph_kway_refine(*current, p, opt, rng);

  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Graph& finer =
        (std::next(it) == levels.rend()) ? g : std::next(it)->coarse;
    Partition fine_p(cfg.num_parts, finer.num_vertices());
    for (Index v = 0; v < finer.num_vertices(); ++v)
      fine_p[VertexId{v}] =
          p[VertexId{it->fine_to_coarse[static_cast<std::size_t>(v)]}];
    p = std::move(fine_p);
    graph_kway_refine(finer, p, opt, rng);
  }
  p.validate();
  return p;
}

}  // namespace hgr
