#include "partition/recursive_bisect.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/csr_utils.hpp"
#include "metrics/balance.hpp"
#include "obs/trace.hpp"
#include "partition/initial.hpp"
#include "partition/multilevel.hpp"
#include "partition/refine_fm.hpp"

namespace hgr {

namespace {

/// A sub-problem of recursive bisection: an extracted hypergraph, the map
/// back to the root vertex ids, and the *original* (k-way) fixed labels,
/// kept separately because the hypergraph's own fixed field is rewritten
/// with 2-way side labels before each bisection.
struct SubProblem {
  Hypergraph h;
  IdVector<VertexId, VertexId> to_root;  // sub id -> root id
  IdVector<VertexId, PartId> fixed_orig;  // empty if nothing fixed
};

/// Extract the side-s induced sub-hypergraph: nets restricted to side-s
/// pins, degenerate (<2 pin) remainders dropped, costs preserved.
SubProblem extract_side(const Hypergraph& h,
                        const IdVector<VertexId, PartId>& side,
                        const IdVector<VertexId, VertexId>& to_root,
                        const IdVector<VertexId, PartId>& fixed_orig,
                        PartId s) {
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> old_to_new(n, kInvalidVertex);
  SubProblem sub;
  VertexId count{0};
  for (const VertexId v : h.vertices()) {
    if (side[v] == s) {
      old_to_new[v] = count++;
      sub.to_root.push_back(to_root[v]);
    }
  }

  IdVector<VertexId, Weight> weights(count.v);
  IdVector<VertexId, Weight> sizes(count.v);
  for (const VertexId v : h.vertices()) {
    const VertexId nv = old_to_new[v];
    if (nv == kInvalidVertex) continue;
    weights[nv] = h.vertex_weight(v);
    sizes[nv] = h.vertex_size(v);
  }
  if (!fixed_orig.empty()) {
    sub.fixed_orig.assign(count.v, kNoPart);
    for (const VertexId v : h.vertices()) {
      const VertexId nv = old_to_new[v];
      if (nv != kInvalidVertex) sub.fixed_orig[nv] = fixed_orig[v];
    }
  }

  std::vector<Index> counts;
  std::vector<Weight> costs;
  for (const NetId net : h.nets()) {
    Index kept = 0;
    for (const VertexId v : h.pins(net))
      if (old_to_new[v] != kInvalidVertex) ++kept;
    if (kept >= 2) {
      counts.push_back(kept);
      costs.push_back(h.net_cost(net));
    }
  }
  std::vector<Index> offsets = counts_to_offsets(std::move(counts));
  std::vector<VertexId> pins(static_cast<std::size_t>(offsets.back()));
  Index cursor = 0;
  for (const NetId net : h.nets()) {
    Index kept = 0;
    for (const VertexId v : h.pins(net))
      if (old_to_new[v] != kInvalidVertex) ++kept;
    if (kept < 2) continue;
    for (const VertexId v : h.pins(net)) {
      const VertexId nv = old_to_new[v];
      if (nv != kInvalidVertex) pins[static_cast<std::size_t>(cursor++)] = nv;
    }
  }
  HGR_ASSERT(cursor == offsets.back());
  // hgr-lint: raw-ok (handing storage to the Hypergraph raw constructor)
  sub.h = Hypergraph(std::move(offsets), std::move(pins),
                     std::move(weights.raw()), std::move(sizes.raw()),
                     std::move(costs));
  return sub;
}

void rb_recurse(SubProblem sp, PartId part_begin, Index part_count,
                double global_eps, Weight part_limit,
                const PartitionConfig& cfg, Rng& rng, Workspace* ws,
                Partition& out) {
  if (sp.h.num_vertices() == 0) return;
  if (part_count == 1) {
    for (const VertexId root_v : sp.to_root) out[root_v] = part_begin;
    return;
  }

  const Index k0 = (part_count + 1) / 2;
  const Index k1 = part_count - k0;
  const PartId mid{part_begin.v + k0};

  // Per-bisection tolerance so that the compounded imbalance over the
  // remaining ceil(log2 k) levels stays within the global epsilon.
  const int levels_left = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(part_count))));
  const double eps_b =
      std::pow(1.0 + global_eps, 1.0 / std::max(1, levels_left)) - 1.0;

  BisectionTargets targets;
  const Weight total = sp.h.total_vertex_weight();
  targets.target0 = static_cast<Weight>(
      (static_cast<double>(total) * k0) / part_count + 0.5);
  targets.target1 = total - targets.target0;
  targets.epsilon = eps_b;
  // A side may never exceed what its final parts are allowed to weigh in
  // total, no matter how much per-level epsilon slack remains.
  targets.cap0 = part_limit * k0;
  targets.cap1 = part_limit * k1;

  // Map k-way fixed labels to 2-way side labels for this bisection.
  if (!sp.fixed_orig.empty()) {
    std::vector<PartId> fixed2(sp.fixed_orig.size(), kNoPart);
    for (const VertexId v : sp.fixed_orig.ids()) {
      const PartId f = sp.fixed_orig[v];
      if (f == kNoPart) continue;
      HGR_ASSERT(f >= part_begin && f.v < part_begin.v + part_count);
      fixed2[static_cast<std::size_t>(v.v)] = f < mid ? PartId{0} : PartId{1};
    }
    sp.h.set_fixed_parts(std::move(fixed2));
  }

  const IdVector<VertexId, PartId> side =
      multilevel_bisect(sp.h, targets, cfg, rng, ws);

  SubProblem left =
      extract_side(sp.h, side, sp.to_root, sp.fixed_orig, PartId{0});
  SubProblem right =
      extract_side(sp.h, side, sp.to_root, sp.fixed_orig, PartId{1});
  // Free the parent before recursing to bound peak memory.
  sp = SubProblem{};
  rb_recurse(std::move(left), part_begin, k0, global_eps, part_limit, cfg,
             rng, ws, out);
  rb_recurse(std::move(right), mid, k1, global_eps, part_limit, cfg, rng, ws,
             out);
}

}  // namespace

IdVector<VertexId, PartId> multilevel_bisect(const Hypergraph& h,
                                             const BisectionTargets& targets,
                                             const PartitionConfig& cfg,
                                             Rng& rng, Workspace* ws) {
  const CoarseningLimits limits =
      coarsening_limits(h.total_vertex_weight(), 20);
  std::vector<CoarseLevel> levels;
  {
    obs::TraceScope coarsen_scope("coarsen");
    levels = build_ipm_hierarchy(h, cfg, limits, rng, ws);
  }

  // Coarsest partitioning: randomized greedy growing, several trials, then
  // FM polish.
  Partition p(2, 0);
  {
    obs::TraceScope initial_scope("initial");
    const Hypergraph& top = coarsest(h, levels);
    p.assignment = initial_bisection(top, targets, cfg.num_initial_trials, rng);
    fm_refine_bisection(top, p.assignment, targets, cfg, rng, ws);
  }

  {
    obs::TraceScope refine_scope("refine");
    uncoarsen(h, levels, p, cfg.check_level,
              [&](const Hypergraph& finer, std::size_t) {
                fm_refine_bisection(finer, p.assignment, targets, cfg, rng, ws);
              });
  }
  return std::move(p.assignment);
}

Partition recursive_bisection_partition(const Hypergraph& h,
                                        const PartitionConfig& cfg,
                                        Workspace* ws) {
  HGR_ASSERT(cfg.num_parts >= 1);
  Partition out(cfg.num_parts, h.num_vertices());
  if (h.num_vertices() == 0) return out;

  Rng rng(cfg.seed);

  SubProblem root;
  root.h = h;  // working copy: rb_recurse rewrites fixed labels per level
  root.to_root.resize(h.num_vertices());
  for (const VertexId v : h.vertices()) root.to_root[v] = v;
  if (h.has_fixed())
    // hgr-lint: raw-ok (bulk copy of the fixed-label array, same id space)
    root.fixed_orig.raw().assign(h.fixed_parts().begin(),
                                 h.fixed_parts().end());

  rb_recurse(std::move(root), PartId{0}, cfg.num_parts, cfg.epsilon,
             max_part_weight(h.total_vertex_weight(), cfg.num_parts,
                             cfg.epsilon),
             cfg, rng, ws, out);
  out.validate();
  {
    // Balance is asserted by partition_hypergraph against the global
    // epsilon; here only structure and fixed constraints are checked (each
    // bisection level used its own compounded tolerance).
    check::PartitionExpectations expect;
    expect.context = "recursive_bisect";
    check::validate_partition(h, out, cfg.check_level, expect);
  }
  return out;
}

}  // namespace hgr
