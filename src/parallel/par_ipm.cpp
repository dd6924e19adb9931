#include "parallel/par_ipm.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

namespace {

/// Wire format of a match proposal: (candidate, partner, score, rank).
struct Proposal {
  Index candidate;
  Index partner;
  Weight score;
  std::int32_t rank;
};

/// A candidate's chosen partner and the summed cost of their shared nets.
struct Partner {
  Index id = kInvalidIndex;
  Weight score = 0;
};

/// The IPM partner scan shared by both matchings: scores c against the
/// still-unmatched vertices of [lo, hi) over its nets of scorable size and
/// nonzero cost, then picks the highest score among the fixed-compatible
/// pairs under the weight cap, breaking ties by lighter weight, then lower
/// id. `score` is all-zero on entry and on return.
Partner best_partner(const Hypergraph& h, const PartitionConfig& cfg,
                     const std::vector<Index>& match, Index c, Index lo,
                     Index hi, Weight max_vertex_weight,
                     std::vector<Weight>& score, std::vector<Index>& touched) {
  touched.clear();
  for (const NetId net : h.incident_nets(VertexId{c})) {
    const Index net_size = h.net_size(net);
    if (net_size < 2 || net_size > cfg.max_scored_net_size) continue;
    const Weight cost = h.net_cost(net);
    if (cost == 0) continue;
    for (const VertexId pin : h.pins(net)) {
      const Index u = to_raw(pin);
      if (u == c || u < lo || u >= hi) continue;  // not ours
      if (match[static_cast<std::size_t>(u)] != u) continue;
      if (score[static_cast<std::size_t>(u)] == 0) touched.push_back(u);
      score[static_cast<std::size_t>(u)] += cost;
    }
  }
  const PartId fc = h.fixed_part(VertexId{c});
  const Weight wc = h.vertex_weight(VertexId{c});
  Partner best;
  Weight best_weight = 0;
  for (const Index u : touched) {
    const Weight s = score[static_cast<std::size_t>(u)];
    score[static_cast<std::size_t>(u)] = 0;
    if (!fixed_compatible(fc, h.fixed_part(VertexId{u}))) continue;
    const Weight wu = h.vertex_weight(VertexId{u});
    if (max_vertex_weight > 0 && wc + wu > max_vertex_weight) continue;
    if (best.id == kInvalidIndex || s > best.score ||
        (s == best.score &&
         (wu < best_weight || (wu == best_weight && u < best.id)))) {
      best = {u, s};
      best_weight = wu;
    }
  }
  return best;
}

}  // namespace

std::vector<Index> parallel_ipm_matching(RankContext& ctx,
                                         const Hypergraph& h,
                                         const PartitionConfig& cfg,
                                         Weight max_vertex_weight,
                                         std::uint64_t seed) {
  const Index n = h.num_vertices();
  std::vector<Index> match(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) match[static_cast<std::size_t>(v)] = v;

  const auto [lo, hi] = block_range(n, ctx.size(), ctx.rank());
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(ctx.rank())));

  // Local unmatched vertices in random visit order.
  std::vector<Index> local;
  for (Index v = lo; v < hi; ++v) local.push_back(v);
  rng.shuffle(local);
  std::size_t cursor = 0;

  const int rounds = 4;
  std::vector<Weight> score(static_cast<std::size_t>(n), 0);
  std::vector<Index> touched;

  for (int round = 0; round < rounds; ++round) {
    // Select this round's candidates from the still-unmatched local
    // vertices (an even share per round, the leftovers in the last round).
    std::vector<Index> candidates;
    const std::size_t budget =
        round + 1 == rounds
            ? local.size()
            : (local.size() + rounds - 1) / static_cast<std::size_t>(rounds);
    while (cursor < local.size() && candidates.size() < budget) {
      const Index v = local[cursor++];
      if (match[static_cast<std::size_t>(v)] == v &&
          h.vertex_degree(VertexId{v}) <= cfg.max_matching_degree)
        candidates.push_back(v);
    }

    // Broadcast candidates to every rank (rank boundaries are irrelevant
    // here, so the contiguous payload is consumed directly).
    const FlatBuffer<Index> all_candidates =
        ctx.allgatherv<Index>({candidates.data(), candidates.size()});

    // Score every foreign and local candidate against *our* unmatched
    // vertices; emit our best proposal per candidate.
    std::vector<Proposal> proposals;
    for (const Index c : all_candidates.all()) {
      if (match[static_cast<std::size_t>(c)] != c) continue;
      const Partner best = best_partner(h, cfg, match, c, lo, hi,
                                        max_vertex_weight, score, touched);
      if (best.id != kInvalidIndex)
        proposals.push_back({c, best.id, best.score,
                             static_cast<std::int32_t>(ctx.rank())});
    }

    // Gather all proposals; every rank finalizes identically: candidates
    // in ascending id order, each taking its globally best still-valid
    // partner. The gathered payload is already one contiguous array, so it
    // is sorted in place — no flatten pass.
    FlatBuffer<Proposal> all_proposals =
        ctx.allgatherv<Proposal>({proposals.data(), proposals.size()});
    const std::span<Proposal> flat = all_proposals.all();
    std::sort(flat.begin(), flat.end(), [](const Proposal& a,
                                           const Proposal& b) {
      if (a.candidate != b.candidate) return a.candidate < b.candidate;
      if (a.score != b.score) return a.score > b.score;
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.partner < b.partner;
    });
    for (std::size_t i = 0; i < flat.size();) {
      const Index c = flat[i].candidate;
      if (match[static_cast<std::size_t>(c)] == c) {
        for (std::size_t j = i; j < flat.size() && flat[j].candidate == c;
             ++j) {
          const Index u = flat[j].partner;
          if (u != c && match[static_cast<std::size_t>(u)] == u) {
            match[static_cast<std::size_t>(c)] = u;
            match[static_cast<std::size_t>(u)] = c;
            break;
          }
        }
      }
      while (i < flat.size() && flat[i].candidate == c) ++i;
    }
  }

#ifndef NDEBUG
  for (Index v = 0; v < n; ++v)
    HGR_ASSERT(match[static_cast<std::size_t>(
                   match[static_cast<std::size_t>(v)])] == v);
#endif
  return match;
}

std::vector<Index> local_ipm_matching(RankContext& ctx, const Hypergraph& h,
                                      const PartitionConfig& cfg,
                                      Weight max_vertex_weight,
                                      std::uint64_t seed) {
  const Index n = h.num_vertices();
  std::vector<Index> match(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) match[static_cast<std::size_t>(v)] = v;

  const auto [lo, hi] = block_range(n, ctx.size(), ctx.rank());
  Rng rng(derive_seed(seed, 31 + static_cast<std::uint64_t>(ctx.rank())));

  // Serial first-choice IPM restricted to the local vertex block: both the
  // initiating vertex and its partner must be owned here.
  std::vector<Weight> score(static_cast<std::size_t>(n), 0);
  std::vector<Index> touched;
  std::vector<Index> order;
  for (Index v = lo; v < hi; ++v) order.push_back(v);
  rng.shuffle(order);

  std::vector<Index> pairs;  // flat (v, u) list of local matches
  for (const Index v : order) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    if (h.vertex_degree(VertexId{v}) > cfg.max_matching_degree) continue;
    const Index best = best_partner(h, cfg, match, v, lo, hi,
                                    max_vertex_weight, score, touched)
                           .id;
    if (best != kInvalidIndex) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
      pairs.push_back(v);
      pairs.push_back(best);
    }
  }

  // One exchange replicates every rank's decisions; blocks are disjoint so
  // no conflicts are possible.
  const FlatBuffer<Index> all_pairs =
      ctx.allgatherv<Index>({pairs.data(), pairs.size()});
  for (int s = 0; s < ctx.size(); ++s) {
    const std::span<const Index> per_rank = all_pairs.slot(s);
    HGR_ASSERT(per_rank.size() % 2 == 0);
    for (std::size_t i = 0; i < per_rank.size(); i += 2) {
      const Index v = per_rank[i];
      const Index u = per_rank[i + 1];
      match[static_cast<std::size_t>(v)] = u;
      match[static_cast<std::size_t>(u)] = v;
    }
  }

#ifndef NDEBUG
  for (Index v = 0; v < n; ++v)
    HGR_ASSERT(match[static_cast<std::size_t>(
                   match[static_cast<std::size_t>(v)])] == v);
#endif
  return match;
}

}  // namespace hgr
