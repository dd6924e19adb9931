#include "check/validate.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"

namespace hgr::check {

namespace {

/// From-scratch connectivity-1 cut, deliberately independent of
/// metrics/cut.cpp (a seen-flags sweep per net) so the two implementations
/// cross-check each other.
Weight recompute_cut(const Hypergraph& h, const Partition& p) {
  IdVector<PartId, char> seen(p.k, 0);
  Weight total = 0;
  for (const NetId net : h.nets()) {
    Index lambda = 0;
    const auto pins = h.pins(net);
    for (const VertexId v : pins) {
      char& flag = seen[p[v]];
      if (!flag) {
        flag = 1;
        ++lambda;
      }
    }
    for (const VertexId v : pins) seen[p[v]] = 0;
    if (lambda > 1) total += h.net_cost(net) * (lambda - 1);
  }
  return total;
}

Weight recompute_migration(const Hypergraph& h, const Partition& old_p,
                           const Partition& new_p) {
  Weight moved = 0;
  for (const VertexId v : h.vertices())
    if (old_p[v] != new_p[v]) moved += h.vertex_size(v);
  return moved;
}

}  // namespace

void validate_partition(const Hypergraph& h, const Partition& p,
                        CheckLevel level,
                        const PartitionExpectations& expect) {
  if (!enabled(level)) return;
  const char* ctx = expect.context;

  HGR_ASSERT_FMT(p.k >= 1, "[%s] partition has k=%d", ctx, p.k);
  HGR_ASSERT_FMT(p.num_vertices() == h.num_vertices(),
                 "[%s] partition covers %d vertices, hypergraph has %d", ctx,
                 p.num_vertices(), h.num_vertices());
  for (const VertexId v : h.vertices())
    HGR_ASSERT_FMT(p[v].v >= 0 && p[v].v < p.k,
                   "[%s] vertex %d assigned to part %d, valid range [0, %d)",
                   ctx, v.v, p[v].v, p.k);

  if (h.has_fixed()) {
    for (const VertexId v : h.vertices()) {
      const PartId f = h.fixed_part(v);
      HGR_ASSERT_FMT(f == kNoPart || p[v] == f,
                     "[%s] vertex %d fixed to part %d but assigned to %d",
                     ctx, v.v, f.v, p[v].v);
    }
  }
  if (expect.old_partition != nullptr) {
    const Partition& old_p = *expect.old_partition;
    HGR_ASSERT_FMT(old_p.num_vertices() == h.num_vertices(),
                   "[%s] old partition covers %d vertices, hypergraph has %d",
                   ctx, old_p.num_vertices(), h.num_vertices());
    HGR_ASSERT_FMT(old_p.k == p.k, "[%s] old partition k=%d, new k=%d", ctx,
                   old_p.k, p.k);
  }

  if (expect.epsilon >= 0.0 && h.num_vertices() > 0) {
    // The Eq. 1 bound, enforced up to vertex granularity: a move-based
    // refiner cannot split vertices, so on lumpy weights the provable
    // guarantee is bound + (heaviest vertex - 1). For unit weights the
    // allowance vanishes and the bound is exact. Parts whose *fixed*
    // vertices alone exceed even that are exempt: no assignment can help.
    const Weight bound =
        max_part_weight(h.total_vertex_weight(), p.k, expect.epsilon);
    Weight heaviest = 0;
    for (const VertexId v : h.vertices())
      heaviest = std::max(heaviest, h.vertex_weight(v));
    const Weight limit = bound + std::max<Weight>(heaviest, 1) - 1;
    IdVector<PartId, Weight> fixed_w(p.k, 0);
    if (h.has_fixed()) {
      for (const VertexId v : h.vertices())
        if (h.fixed_part(v) != kNoPart)
          fixed_w[h.fixed_part(v)] += h.vertex_weight(v);
    }
    const IdVector<PartId, Weight> weights =
        part_weights(h.vertex_weights(), p);
    for (const PartId q : p.parts()) {
      if (h.has_fixed() && fixed_w[q] > limit) continue;
      HGR_ASSERT_FMT(
          weights[q] <= limit,
          "[%s] part %d weighs %lld, balance bound is %lld (+%lld vertex "
          "granularity, eps=%.4f)",
          ctx, q.v, static_cast<long long>(weights[q]),
          static_cast<long long>(bound),
          static_cast<long long>(limit - bound), expect.epsilon);
    }
  }

  if (!paranoid(level)) return;

  const Weight recomputed = recompute_cut(h, p);
  const Weight model_cut = connectivity_cut(h, p);
  HGR_ASSERT_FMT(recomputed == model_cut,
                 "[%s] independent cut recomputation %lld disagrees with "
                 "metrics/cut %lld",
                 ctx, static_cast<long long>(recomputed),
                 static_cast<long long>(model_cut));
  if (expect.reported_cut >= 0)
    HGR_ASSERT_FMT(recomputed == expect.reported_cut,
                   "[%s] reported cut %lld but recomputation gives %lld", ctx,
                   static_cast<long long>(expect.reported_cut),
                   static_cast<long long>(recomputed));
  if (expect.old_partition != nullptr) {
    const Weight moved = recompute_migration(h, *expect.old_partition, p);
    const Weight model_moved =
        migration_volume(h.vertex_sizes(), *expect.old_partition, p);
    HGR_ASSERT_FMT(moved == model_moved,
                   "[%s] independent migration recomputation %lld disagrees "
                   "with metrics/migration %lld",
                   ctx, static_cast<long long>(moved),
                   static_cast<long long>(model_moved));
    if (expect.reported_migration >= 0)
      HGR_ASSERT_FMT(
          moved == expect.reported_migration,
          "[%s] reported migration volume %lld but recomputation gives %lld",
          ctx, static_cast<long long>(expect.reported_migration),
          static_cast<long long>(moved));
  }
}

void validate_coarsening(const Hypergraph& fine, const CoarseLevel& level_data,
                         CheckLevel level,
                         const Partition* coarse_partition) {
  if (!enabled(level)) return;
  const Hypergraph& coarse = level_data.coarse;
  const IdVector<VertexId, VertexId>& map = level_data.fine_to_coarse;

  HGR_ASSERT_FMT(map.ssize() == fine.num_vertices(),
                 "fine_to_coarse has %zu entries for %d fine vertices",
                 map.size(), fine.num_vertices());
  IdVector<VertexId, char> hit(coarse.num_vertices(), 0);
  for (const VertexId v : fine.vertices()) {
    const VertexId c = map[v];
    HGR_ASSERT_FMT(c.v >= 0 && c.v < coarse.num_vertices(),
                   "fine vertex %d maps to coarse %d (|coarse V|=%d)", v.v,
                   c.v, coarse.num_vertices());
    hit[c] = 1;
  }
  for (const VertexId c : coarse.vertices())
    HGR_ASSERT_FMT(hit[c], "coarse vertex %d has no fine preimage", c.v);

  HGR_ASSERT_FMT(
      fine.total_vertex_weight() == coarse.total_vertex_weight(),
      "contraction changed total vertex weight %lld -> %lld",
      static_cast<long long>(fine.total_vertex_weight()),
      static_cast<long long>(coarse.total_vertex_weight()));
  Weight fine_size = 0, coarse_size = 0;
  for (const VertexId v : fine.vertices()) fine_size += fine.vertex_size(v);
  for (const VertexId c : coarse.vertices())
    coarse_size += coarse.vertex_size(c);
  HGR_ASSERT_FMT(fine_size == coarse_size,
                 "contraction changed total vertex size %lld -> %lld",
                 static_cast<long long>(fine_size),
                 static_cast<long long>(coarse_size));

  // Fixed labels conserved: each fixed fine vertex's image carries the same
  // label, and no coarse label lacks a fine justification.
  if (fine.has_fixed()) {
    for (const VertexId v : fine.vertices()) {
      const PartId f = fine.fixed_part(v);
      if (f == kNoPart) continue;
      const VertexId c = map[v];
      HGR_ASSERT_FMT(coarse.fixed_part(c) == f,
                     "fine vertex %d fixed to %d but coarse vertex %d fixed "
                     "to %d",
                     v.v, f.v, c.v, coarse.fixed_part(c).v);
    }
  }
  if (coarse.has_fixed()) {
    IdVector<VertexId, char> justified(coarse.num_vertices(), 0);
    for (const VertexId v : fine.vertices())
      if (fine.fixed_part(v) != kNoPart) justified[map[v]] = 1;
    for (const VertexId c : coarse.vertices())
      HGR_ASSERT_FMT(coarse.fixed_part(c) == kNoPart || justified[c],
                     "coarse vertex %d fixed to %d without any fixed fine "
                     "preimage",
                     c.v, coarse.fixed_part(c).v);
  }

  if (!paranoid(level) || coarse_partition == nullptr) return;

  const Partition& cp = *coarse_partition;
  HGR_ASSERT_FMT(cp.num_vertices() == coarse.num_vertices(),
                 "coarse partition covers %d vertices, coarse hypergraph "
                 "has %d",
                 cp.num_vertices(), coarse.num_vertices());
  Partition projected(cp.k, fine.num_vertices());
  for (const VertexId v : fine.vertices()) projected[v] = cp[map[v]];
  const Weight fine_cut = recompute_cut(fine, projected);
  const Weight coarse_cut = recompute_cut(coarse, cp);
  HGR_ASSERT_FMT(fine_cut == coarse_cut,
                 "projected fine cut %lld != coarse cut %lld",
                 static_cast<long long>(fine_cut),
                 static_cast<long long>(coarse_cut));
}

}  // namespace hgr::check
