#include "graphpart/gpartitioner.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "graphpart/gcoarsen.hpp"
#include "graphpart/ginitial.hpp"
#include "graphpart/grefine.hpp"
#include "partition/multilevel.hpp"

namespace hgr {

namespace {

struct GraphLevel {
  GraphCoarseLevel cl;
  /// Old assignment at the coarse granularity; empty without an old
  /// partition.
  Partition old_parts;
};

/// The old assignment of each coarse vertex: the shared old assignment of
/// its constituents (local matching never merges across old parts).
Partition project_old_parts(const Partition& fine_old,
                            const GraphCoarseLevel& cl) {
  Partition coarse_old(fine_old.k, cl.coarse.num_vertices(), kNoPart);
  for (Index v = 0; v < fine_old.num_vertices(); ++v) {
    const VertexId cv{cl.fine_to_coarse[static_cast<std::size_t>(v)]};
    const PartId ov = fine_old[VertexId{v}];
    HGR_ASSERT_MSG(coarse_old[cv] == kNoPart || coarse_old[cv] == ov,
                   "local matching crossed old-part boundary");
    coarse_old[cv] = ov;
  }
  return coarse_old;
}

/// The one multilevel loop of both graph baselines: coarsen with heavy-edge
/// matching under the shared stop rules (partition/multilevel.hpp), solve
/// the coarsest level, then project and refine level by level. A non-null
/// old_p restricts matching to its parts, replaces the coarse solution by
/// its coarsest projection, and adds its migration to the refinement gain.
Partition multilevel_graph(const Graph& g, const PartitionConfig& cfg,
                           const Partition* old_p, Weight alpha) {
  Rng rng(cfg.seed);
  const CoarseningLimits limits =
      coarsening_limits(g.total_vertex_weight(), 4 * cfg.num_parts);

  std::vector<GraphLevel> levels;
  const Graph* current = &g;
  const Partition* current_old = old_p;
  for (Index level = 0; limits.may_coarsen(level, current->num_vertices());
       ++level) {
    std::span<const PartId> restrict_labels;
    // hgr-lint: raw-ok (graph layer keeps raw spans of part labels)
    if (current_old != nullptr) restrict_labels = current_old->assignment.raw();
    const std::vector<Index> match = heavy_edge_matching(
        *current, limits.max_vertex_weight, rng, restrict_labels);
    GraphLevel next{contract_graph(*current, match), {}};
    if (CoarseningLimits::stalled(current->num_vertices(),
                                  next.cl.coarse.num_vertices()))
      break;
    if (current_old != nullptr)
      next.old_parts = project_old_parts(*current_old, next.cl);
    levels.push_back(std::move(next));
    current = &levels.back().cl.coarse;
    if (current_old != nullptr) current_old = &levels.back().old_parts;
  }

  Partition p = current_old != nullptr
                    ? *current_old
                    : initial_graph_partition(*current, cfg, rng);
  GRefineOptions opt;
  opt.epsilon = cfg.epsilon;
  opt.max_passes = cfg.max_refine_passes;
  opt.alpha = alpha;
  opt.old_partition = current_old;
  graph_kway_refine(*current, p, opt, rng);

  for (std::size_t i = levels.size(); i-- > 0;) {
    const Graph& finer = i == 0 ? g : levels[i - 1].cl.coarse;
    if (old_p != nullptr)
      opt.old_partition = i == 0 ? old_p : &levels[i - 1].old_parts;
    Partition fine_p(cfg.num_parts, finer.num_vertices());
    for (Index v = 0; v < finer.num_vertices(); ++v)
      fine_p[VertexId{v}] = p[VertexId{
          levels[i].cl.fine_to_coarse[static_cast<std::size_t>(v)]}];
    p = std::move(fine_p);
    graph_kway_refine(finer, p, opt, rng);
  }
  p.validate();
  return p;
}

}  // namespace

Partition partition_graph(const Graph& g, const PartitionConfig& cfg) {
  HGR_ASSERT(cfg.num_parts >= 1);
  if (cfg.num_parts == 1 || g.num_vertices() == 0)
    return Partition(std::max<Index>(1, cfg.num_parts), g.num_vertices());
  return multilevel_graph(g, cfg, nullptr, 1);
}

Partition adaptive_repartition(const Graph& g, const Partition& old_p,
                               const PartitionConfig& cfg, Weight alpha) {
  HGR_ASSERT(old_p.k == cfg.num_parts);
  HGR_ASSERT(old_p.num_vertices() == g.num_vertices());
  HGR_ASSERT(alpha >= 1);
  if (cfg.num_parts == 1 || g.num_vertices() == 0) return old_p;
  return multilevel_graph(g, cfg, &old_p, alpha);
}

}  // namespace hgr
