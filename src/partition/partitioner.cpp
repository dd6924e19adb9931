#include "partition/partitioner.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "partition/kway_refine.hpp"
#include "partition/multilevel.hpp"
#include "partition/recursive_bisect.hpp"

namespace hgr {

namespace {

/// Greedy k-way assignment at the coarsest level of the direct k-way path:
/// fixed vertices first, then heaviest-first placement into the feasible
/// part with the best connectivity gain (ties: lightest part).
Partition greedy_kway_initial(const Hypergraph& h, const PartitionConfig& cfg,
                              Rng& rng) {
  const Index k = cfg.num_parts;
  Partition p(k, h.num_vertices(), kNoPart);
  IdVector<PartId, Weight> part_w(k, 0);
  const double avg =
      static_cast<double>(h.total_vertex_weight()) / static_cast<double>(k);
  const auto max_w = static_cast<Weight>(avg * (1.0 + cfg.epsilon));

  for (const VertexId v : h.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      p[v] = f;
      part_w[f] += h.vertex_weight(v);
    }
  }

  std::vector<Index> order = random_permutation(h.num_vertices(), rng);
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return h.vertex_weight(VertexId{a}) > h.vertex_weight(VertexId{b});
  });

  IdVector<PartId, Weight> affinity(k, 0);
  for (const Index vi : order) {
    const VertexId v{vi};
    if (p[v] != kNoPart) continue;
    std::fill(affinity.begin(), affinity.end(), Weight{0});
    for (const NetId net : h.incident_nets(v)) {
      const Weight c = h.net_cost(net);
      for (const VertexId u : h.pins(net))
        if (u != v && p[u] != kNoPart) affinity[p[u]] += c;
    }
    PartId best = kNoPart;
    for (const PartId q : p.parts()) {
      const bool fits = part_w[q] + h.vertex_weight(v) <= max_w;
      if (!fits) continue;
      if (best == kNoPart || affinity[q] > affinity[best] ||
          (affinity[q] == affinity[best] && part_w[q] < part_w[best]))
        best = q;
    }
    if (best == kNoPart) {
      // Nothing fits: overflow into the lightest part (best effort).
      best = PartId{static_cast<Index>(
          std::min_element(part_w.begin(), part_w.end()) - part_w.begin())};
    }
    p[v] = best;
    part_w[best] += h.vertex_weight(v);
  }
  return p;
}

}  // namespace

Partition direct_kway_partition(const Hypergraph& h,
                                const PartitionConfig& cfg, Workspace* ws) {
  Rng rng(cfg.seed);
  const CoarseningLimits limits =
      coarsening_limits(h.total_vertex_weight(), 2 * cfg.num_parts);
  std::vector<CoarseLevel> levels;
  {
    obs::TraceScope coarsen_scope("coarsen");
    levels = build_ipm_hierarchy(h, cfg, limits, rng, ws);
  }

  Partition p;
  {
    obs::TraceScope initial_scope("initial");
    const Hypergraph& top = coarsest(h, levels);
    p = greedy_kway_initial(top, cfg, rng);
    kway_refine(top, p, cfg, rng, cfg.max_refine_passes, ws);
  }

  {
    obs::TraceScope refine_scope("refine");
    uncoarsen(h, levels, p, cfg.check_level,
              [&](const Hypergraph& finer, std::size_t) {
                kway_refine(finer, p, cfg, rng, cfg.max_refine_passes, ws);
              });
  }
  p.validate();
  return p;
}

void refinement_vcycle(const Hypergraph& h, Partition& p,
                       const PartitionConfig& cfg, Rng& rng, Workspace* ws) {
  obs::TraceScope trace("vcycle");
  // Restrict matching to same-part pairs by temporarily fixing every vertex
  // to its current part; the original fixed labels are re-derived on the
  // coarse side from the contraction so true constraints survive.
  Hypergraph work = h;
  std::vector<PartId> part_as_fixed(p.assignment.begin(), p.assignment.end());
  work.set_fixed_parts(std::move(part_as_fixed));

  const CoarseningLimits limits =
      coarsening_limits(h.total_vertex_weight(), 2 * cfg.num_parts);
  std::vector<CoarseLevel> levels =
      build_ipm_hierarchy(work, cfg, limits, rng, ws);

  if (levels.empty()) {
    // Nothing coarsened; a plain refinement sweep still helps.
    kway_refine(h, p, cfg, rng, cfg.max_refine_passes, ws);
    return;
  }

  // The coarse partition is encoded in the contraction-propagated
  // "fixed" labels (every vertex was fixed to its part).
  Partition cp(cfg.num_parts, levels.back().coarse.num_vertices());
  for (const VertexId v : levels.back().coarse.vertices()) {
    const PartId f = levels.back().coarse.fixed_part(v);
    HGR_ASSERT(f != kNoPart);
    cp[v] = f;
  }

  // Refine with only the true constraints fixed: propagate h's fixed
  // labels down the hierarchy, replacing the part-as-fixed labels.
  IdVector<VertexId, PartId> fixed_now;
  if (h.has_fixed())
    // hgr-lint: raw-ok (bulk copy of the fixed-label array, same id space)
    fixed_now.raw().assign(h.fixed_parts().begin(), h.fixed_parts().end());
  for (CoarseLevel& level : levels) {
    IdVector<VertexId, PartId> coarse_fixed;
    if (!fixed_now.empty()) {
      coarse_fixed.assign(level.coarse.num_vertices(), kNoPart);
      for (const VertexId v : level.fine_to_coarse.ids()) {
        const PartId f = fixed_now[v];
        if (f == kNoPart) continue;
        PartId& cf = coarse_fixed[level.fine_to_coarse[v]];
        HGR_ASSERT(cf == kNoPart || cf == f);
        cf = f;
      }
    }
    // hgr-lint: raw-ok (handing the label array to set_fixed_parts)
    level.coarse.set_fixed_parts(coarse_fixed.raw());
    fixed_now = std::move(coarse_fixed);
  }

  kway_refine(levels.back().coarse, cp, cfg, rng, cfg.max_refine_passes, ws);
  uncoarsen(h, levels, cp, cfg.check_level,
            [&](const Hypergraph& finer, std::size_t) {
              kway_refine(finer, cp, cfg, rng, cfg.max_refine_passes, ws);
            });

  // V-cycles must never regress.
  if (connectivity_cut(h, cp) <= connectivity_cut(h, p)) p = std::move(cp);
}

Partition partition_hypergraph(const Hypergraph& h,
                               const PartitionConfig& cfg) {
  obs::TraceScope trace("partition");
  HGR_ASSERT(cfg.num_parts >= 1);
  HGR_ASSERT(cfg.epsilon >= 0.0);
  h.validate(cfg.num_parts);

  if (cfg.num_parts == 1 || h.num_vertices() == 0) {
    Partition p(std::max<Index>(1, cfg.num_parts), h.num_vertices(),
                PartId{0});
    if (h.has_fixed()) {
      for (const VertexId v : h.vertices())
        if (h.fixed_part(v) != kNoPart) p[v] = h.fixed_part(v);
    }
    return p;
  }

  // One scratch arena for the whole call: every level of coarsening,
  // initial partitioning, and refinement below draws its temporaries from
  // here instead of reallocating per level. When cfg asks for shared-memory
  // threads, the arena also carries the pool the kernels run on
  // (docs/PARALLELISM.md) — same partition at every thread count.
  Workspace ws;
  std::optional<ThreadPool> pool;
  if (cfg.num_threads > 1) {
    pool.emplace(static_cast<int>(cfg.num_threads));
    ws.set_pool(&*pool);
  }
  Partition p = (cfg.kway_method == KwayMethod::kRecursiveBisection)
                    ? recursive_bisection_partition(h, cfg, &ws)
                    : direct_kway_partition(h, cfg, &ws);

  Rng post_rng(derive_seed(cfg.seed, 0xFACE));
  if (cfg.kway_postpass)
    kway_refine(h, p, cfg, post_rng, cfg.max_refine_passes, &ws);
  for (Index i = 0; i < cfg.num_vcycles; ++i)
    refinement_vcycle(h, p, cfg, post_rng, &ws);

  // Fixed constraints are hard: verify.
  if (h.has_fixed()) {
    for (const VertexId v : h.vertices()) {
      const PartId f = h.fixed_part(v);
      HGR_ASSERT_MSG(f == kNoPart || p[v] == f,
                     "partitioner violated a fixed-vertex constraint");
    }
  }
  {
    check::PartitionExpectations expect;
    expect.epsilon = cfg.epsilon;
    expect.context = "partition_hypergraph";
    check::validate_partition(h, p, cfg.check_level, expect);
  }
  return p;
}

}  // namespace hgr
