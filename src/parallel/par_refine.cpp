#include "parallel/par_refine.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "parallel/par_ipm.hpp"  // block_range
#include "partition/gain_cache.hpp"

namespace hgr {

namespace {

/// Wire format for the proposal exchange: raw vertex id on purpose — this
/// struct crosses the allgatherv comm boundary (see types.hpp "boundary"
/// note); PartId/Weight are trivially copyable and travel as-is.
struct MoveProposal {
  Index vertex;  // raw VertexId.v
  PartId to;
  Weight gain;
};

}  // namespace

ParRefineResult parallel_refine(RankContext& ctx, const Hypergraph& h,
                                Partition& p, const PartitionConfig& cfg) {
  ParRefineResult result;
  if (p.k <= 1) {
    result.initial_cut = connectivity_cut(h, p);
    result.final_cut = result.initial_cut;
    return result;
  }

  // Replicated refinement state: every rank holds the same cache and
  // applies the same moves, so the caches stay identical. Its build
  // computes the starting cut.
  GainCache cache(h, p);
  result.initial_cut = cache.cut();
  const Weight max_w = max_part_weight(h.total_vertex_weight(), p.k,
                                       cfg.epsilon);
  const auto [lo, hi] = block_range(h.num_vertices(), ctx.size(), ctx.rank());
  std::vector<PartId> candidates;
  std::vector<std::uint64_t> words;
  std::uint64_t gain_evals = 0;

  // Global quantities (identical on every rank) are counted by rank 0
  // only; per-rank work (proposals scanned, gain evaluations) is summed
  // over ranks.
  const bool lead = ctx.rank() == 0;

  for (Index pass = 0; pass < cfg.max_refine_passes; ++pass) {
    ++result.passes;

    // Propose: scan owned vertices against the frozen pass-start state.
    // Scan order cannot matter: each proposal depends on the pass-start
    // cache alone, and the exchange below sorts them into a total order.
    std::vector<MoveProposal> proposals;
    for (Index vi = lo; vi < hi; ++vi) {
      const VertexId v{vi};
      if (h.fixed_part(v) != kNoPart) continue;
      // Best positive-gain feasible destination. Candidates come in
      // ascending part order, so ties keep the lowest part id.
      cache.candidate_parts_into(candidates, v, words);
      PartId best = kNoPart;
      Weight best_gain = 0;
      for (const PartId q : candidates) {
        if (cache.part_weight(q) + h.vertex_weight(v) > max_w) continue;
        ++gain_evals;
        const Weight g = cache.move_gain(v, q);
        if (g > best_gain) {
          best = q;
          best_gain = g;
        }
      }
      if (best != kNoPart) proposals.push_back({to_raw(v), best, best_gain});
    }
    static obs::CachedCounter proposals_counter("refine.proposals");
    proposals_counter += proposals.size();

    // Exchange and apply in deterministic global order (descending gain,
    // then vertex id), revalidating each move against the evolving state.
    // The gathered payload is contiguous, so it is sorted in place.
    FlatBuffer<MoveProposal> all =
        ctx.allgatherv<MoveProposal>({proposals.data(), proposals.size()});
    const std::span<MoveProposal> flat = all.all();
    std::sort(flat.begin(), flat.end(),
              [](const MoveProposal& a, const MoveProposal& b) {
                if (a.gain != b.gain) return a.gain > b.gain;
                return a.vertex < b.vertex;
              });
    Index applied = 0;
    Index rejected_gain = 0;
    Index rejected_balance = 0;
    for (const MoveProposal& m : flat) {
      const VertexId v = from_raw<VertexId>(m.vertex);
      if (p[v] == m.to) continue;
      const Weight g = cache.move_gain(v, m.to);
      if (g <= 0) {
        ++rejected_gain;
        continue;
      }
      if (cache.part_weight(m.to) + h.vertex_weight(v) > max_w) {
        ++rejected_balance;
        continue;
      }
      cache.apply_move(v, m.to);
      p[v] = m.to;
      ++applied;
    }
    result.moves += applied;
    if (lead) {
      static obs::CachedCounter passes_counter("refine.passes");
      static obs::CachedCounter applied_counter("refine.applied_moves");
      static obs::CachedCounter rejected_gain_counter("refine.rejected_gain");
      static obs::CachedCounter rejected_balance_counter(
          "refine.rejected_balance");
      passes_counter += 1;
      applied_counter += static_cast<std::uint64_t>(applied);
      rejected_gain_counter += static_cast<std::uint64_t>(rejected_gain);
      rejected_balance_counter +=
          static_cast<std::uint64_t>(rejected_balance);
    }
    const Index applied_anywhere = static_cast<Index>(
        ctx.allreduce_sum<std::int64_t>(applied));
    // Every rank applied the identical global move list, so `applied` is
    // already global; the reduction doubles as a lockstep check.
    HGR_ASSERT(applied_anywhere == applied * ctx.size());
    if (applied == 0) break;
  }
  static obs::CachedCounter gain_evals_counter("refine.gain_evals");
  gain_evals_counter += gain_evals;
  result.final_cut = cache.cut();
  HGR_DASSERT(result.final_cut == connectivity_cut(h, p));
  return result;
}

}  // namespace hgr
