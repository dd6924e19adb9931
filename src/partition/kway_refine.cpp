#include "partition/kway_refine.hpp"

#include <cstdio>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "partition/gain_cache.hpp"

namespace hgr {

// Each pass runs in two phases (propose, then apply) at every thread
// count, so threads=1 and threads=8 walk byte-identical state:
//
//   Propose (parallel over vertices): against the frozen pass-start cache
//   — GainCache::best_move with per-thread scratch — mark every vertex
//   that has an acceptable move. Read-only on shared
//   state, one flag write per vertex into the chunk the thread owns.
//
//   Apply (serial, permutation order): re-evaluate each marked vertex
//   against the *live* cache with the same GainCache::best_move rule, and
//   apply the move if it is still acceptable. The permutation is drawn
//   serially from `rng` per pass, so the stream is consumed identically
//   at every thread count.
//
// The proposal phase is a filter, not a commitment: moves that sour once
// earlier moves land are re-checked and dropped, and vertices that only
// become attractive mid-pass are picked up by the next pass (the pass
// loop already iterates until a sweep applies nothing).
KwayRefineResult kway_refine(const Hypergraph& h, Partition& p,
                             const PartitionConfig& cfg, Rng& rng,
                             Index max_passes, Workspace* ws) {
  KwayRefineResult result;
  result.initial_cut = connectivity_cut(h, p);
  result.final_cut = result.initial_cut;
  const Index k = p.k;
  const Index n = h.num_vertices();
  if (k <= 1 || n == 0) return result;
  // Memory guard: the dense table must stay sane (~1 GiB of Index). The
  // skip is counted and noted — never silent (docs/OBSERVABILITY.md).
  if (static_cast<std::size_t>(h.num_nets()) * static_cast<std::size_t>(k) >
      (std::size_t{1} << 28)) {
    static obs::CachedCounter skipped("kway.skipped_table_too_large");
    skipped += 1;
    std::fprintf(stderr,
                 "kway_refine: pins-per-part table too large "
                 "(num_nets=%lld x k=%d), returning unrefined partition\n",
                 static_cast<long long>(h.num_nets()), k);
    return result;
  }

  GainCache cache(h, p, ws);
  const Weight max_part_weight =
      hgr::max_part_weight(h.total_vertex_weight(), k, cfg.epsilon);

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);

  Borrowed<std::uint8_t> proposed_b(ws);
  std::vector<std::uint8_t>& proposed = proposed_b.get();
  std::vector<std::uint64_t> proposals_of(
      static_cast<std::size_t>(num_threads), 0);
  std::uint64_t total_proposals = 0;

  // Caller-side scratch for the serial apply phase.
  Borrowed<Weight> gain_to_b(ws);
  std::vector<Weight>& gain_to = gain_to_b.get();
  Borrowed<PartId> candidates_b(ws);
  std::vector<PartId>& candidates = candidates_b.get();
  Borrowed<std::uint64_t> conn_scratch_b(ws);
  std::vector<std::uint64_t>& conn_scratch = conn_scratch_b.get();

  Borrowed<Index> order_b(ws);
  std::vector<Index>& order = order_b.get();
  // Accepted-move gain distribution (k-way moves are negative only off an
  // overweight part, so this histogram's p50 vs max shows how front-loaded
  // the pass is).
  // Batched locally, folded into the registry once per pass.
  static obs::CachedHistogram gain_hist("kway.move_gain");
  obs::HistogramSnapshot gain_batch;

  for (Index pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    random_permutation_into(order, n, rng);
    proposed.assign(static_cast<std::size_t>(n), 0);
    for (int t = 0; t < num_threads; ++t)
      proposals_of[static_cast<std::size_t>(t)] = 0;

    // Propose: read-only against the pass-start cache.
    parallel_chunks(pool, n, [&](int t, Index begin, Index end) {
      Workspace* tws = ws != nullptr ? &ws->for_thread(t) : nullptr;
      Borrowed<PartId> t_candidates_b(tws);
      Borrowed<Weight> t_gain_to_b(tws);
      Borrowed<std::uint64_t> t_conn_b(tws);
      std::uint64_t found = 0;
      for (Index vi = begin; vi < end; ++vi) {
        const VertexId v{vi};
        if (h.fixed_part(v) != kNoPart) continue;
        if (cache.best_move(v, max_part_weight, t_candidates_b.get(),
                            t_gain_to_b.get(), t_conn_b.get())
                .to == kNoPart)
          continue;
        proposed[static_cast<std::size_t>(vi)] = 1;
        ++found;
      }
      proposals_of[static_cast<std::size_t>(t)] = found;
    });
    for (int t = 0; t < num_threads; ++t)
      total_proposals += proposals_of[static_cast<std::size_t>(t)];

    // Apply: serial, permutation order, against the live cache.
    Index moves_this_pass = 0;
    for (const Index vi : order) {
      if (proposed[static_cast<std::size_t>(vi)] == 0) continue;
      const VertexId v{vi};
      const GainCache::Move best = cache.best_move(
          v, max_part_weight, candidates, gain_to, conn_scratch);
      if (best.to == kNoPart) continue;  // soured since the proposal snapshot
      gain_batch.record(best.gain);
      cache.apply_move(v, best.to);
      p[v] = best.to;
      ++moves_this_pass;
    }
    if (gain_batch.count > 0) {
      gain_hist.get().merge(gain_batch);
      gain_batch = obs::HistogramSnapshot{};
    }
    result.moves += moves_this_pass;
    if (moves_this_pass == 0) break;
  }
  static obs::CachedCounter passes_counter("kway.passes");
  static obs::CachedCounter moves_counter("kway.moves");
  static obs::CachedCounter proposals_counter("kway.proposals");
  passes_counter += static_cast<std::uint64_t>(result.passes);
  moves_counter += static_cast<std::uint64_t>(result.moves);
  proposals_counter += total_proposals;
  result.final_cut = cache.cut();
  cache.validate(cfg.check_level);
  HGR_DASSERT(result.final_cut == connectivity_cut(h, p));
  return result;
}

}  // namespace hgr
