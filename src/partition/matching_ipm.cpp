#include "partition/matching_ipm.hpp"

#include <cstdint>
#include <deque>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace hgr {
namespace {

/// Rounds are capped defensively; real inputs converge in far fewer
/// (expected O(log n) thanks to the per-round hash tie-break).
constexpr Index kMaxRounds = 64;
/// A round can make zero matches yet not be terminal: the next salt
/// reshuffles tie-broken preferences. Give up after this many in a row.
constexpr int kStaleRounds = 4;
/// tier_len of a vertex that has not scanned yet in this call.
constexpr Index kUnscanned = -1;

}  // namespace

// Mutual-proposal matching, the thread-parallel replacement for the old
// sequential greedy pass. Each round: (1) every unmatched vertex proposes
// to its best feasible unmatched neighbor (cost-weighted shared nets);
// (2) pairs that proposed to each other become matched. Both phases are
// chunked over vertices; phase 1 reads only round-start `match` and writes
// prop[v] and v's tier for v in its own chunk, phase 2 reads only `prop`
// and writes the two match cells of a mutual pair from the chunk owning
// its smaller endpoint — each cell has exactly one writer, so the rounds
// are race-free AND their output is a pure function of the round-start
// state. That makes the result bit-identical for every thread count (the
// ThreadDeterminism suite holds this to 1/2/4 threads).
//
// Ties (equal score, equal weight) are broken by a per-round salted hash
// of the candidate id before the id itself: with plain lowest-id
// preference, symmetric neighborhoods (paths, grids) funnel every
// proposal onto the same few vertices and the rounds crawl; the hash
// decorrelates preferences so a constant fraction of proposals pair up
// per round. The salt is drawn serially from `rng` once per round, so the
// random stream is consumed identically at every thread count.
//
// Tier reuse. A full scan leaves v's *top tier*: the feasible partners
// tied at the best (score, weight). Within one call scores, weights,
// degrees, fixed parts and the weight cap never change, and the
// candidates only lose members as they get matched. So while a tier
// member is still unmatched, a full scan would return exactly the
// surviving member with the smallest (salted hash, id); later rounds
// filter the tier against round-start `match` and pick from it, and scan
// again only once the whole tier is matched. A scan that finds no
// feasible partner is final. Tiers live in one double-buffered store per
// thread; a vertex stays in the same static chunk every round, so only
// its own thread ever writes or reads its (offset, length).
IdVector<VertexId, VertexId> ipm_matching(const Hypergraph& h,
                                          const PartitionConfig& cfg,
                                          Weight max_vertex_weight, Rng& rng,
                                          Workspace* ws) {
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : h.vertices()) match[v] = v;

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);

  // Sparse score accumulators, one slice of `n` per thread: score[u] is
  // valid iff u is in that thread's `touched` list, and every slice is
  // restored to all-zero before its vertex iteration ends. The flat
  // T x n buffer comes from the caller's arena; the touched lists come
  // from each thread's own sub-arena inside the parallel sections.
  Borrowed<Weight> score_b(ws);
  score_b.get().assign(
      static_cast<std::size_t>(num_threads) * static_cast<std::size_t>(n), 0);

  // prop[v]: the partner v proposes to this round (invalid = sits out).
  Borrowed<VertexId> prop_b(ws);
  prop_b.get().assign(static_cast<std::size_t>(n), kInvalidVertex);
  IdSpan<VertexId, VertexId> prop(std::span<VertexId>(prop_b.get()));

  // v's tier is tiers[2t + round parity][tier_off[v], + tier_len[v]) of
  // its owning thread t. Both stores of a thread are borrowed from its
  // sub-arena here, on the caller, and kept across rounds.
  Borrowed<Index> tier_off_b(ws);
  Borrowed<Index> tier_len_b(ws);
  tier_off_b.get().assign(static_cast<std::size_t>(n), 0);
  tier_len_b.get().assign(static_cast<std::size_t>(n), kUnscanned);
  IdSpan<VertexId, Index> tier_off(std::span<Index>(tier_off_b.get()));
  IdSpan<VertexId, Index> tier_len(std::span<Index>(tier_len_b.get()));
  std::deque<Borrowed<VertexId>> tiers;
  for (int t = 0; t < num_threads; ++t)
    for (int parity = 0; parity < 2; ++parity)
      tiers.emplace_back(ws != nullptr ? &ws->for_thread(t) : nullptr);

  std::vector<std::uint64_t> proposals_of(
      static_cast<std::size_t>(num_threads), 0);
  std::vector<std::uint64_t> matched_of(static_cast<std::size_t>(num_threads),
                                        0);
  std::vector<std::uint64_t> scanned_of(static_cast<std::size_t>(num_threads),
                                        0);
  std::vector<std::uint64_t> hits_of(static_cast<std::size_t>(num_threads), 0);

  Index rounds = 0;
  int stale = 0;
  std::uint64_t total_proposals = 0;
  while (rounds < kMaxRounds && stale < kStaleRounds) {
    ++rounds;
    const std::uint64_t salt = rng();
    const int parity = rounds & 1;
    for (int t = 0; t < num_threads; ++t) {
      proposals_of[static_cast<std::size_t>(t)] = 0;
      matched_of[static_cast<std::size_t>(t)] = 0;
    }

    // Phase 1: proposals. Reads match (round-start state), writes the
    // prop and tier cells owned by the chunk.
    parallel_chunks(pool, n, [&](int t, Index begin, Index end) {
      IdSpan<VertexId, Weight> score(
          score_b.get().data() +
              static_cast<std::size_t>(t) * static_cast<std::size_t>(n),
          static_cast<std::size_t>(n));
      Workspace* tws = ws != nullptr ? &ws->for_thread(t) : nullptr;
      Borrowed<VertexId> touched_b(tws);
      std::vector<VertexId>& touched = touched_b.get();
      const std::vector<VertexId>& old_tiers =
          tiers[static_cast<std::size_t>(2 * t + (parity ^ 1))].get();
      std::vector<VertexId>& new_tiers =
          tiers[static_cast<std::size_t>(2 * t + parity)].get();
      new_tiers.clear();
      std::uint64_t proposed = 0;
      std::uint64_t scanned = 0;
      std::uint64_t hits = 0;

      for (Index vi = begin; vi < end; ++vi) {
        const VertexId v{vi};
        prop[v] = kInvalidVertex;
        if (match[v] != v) continue;  // already matched
        if (tier_len[v] == 0) continue;  // no feasible partner, ever
        if (h.vertex_degree(v) > cfg.max_matching_degree) continue;
        const std::size_t start = new_tiers.size();

        // Reuse: keep the tier members still unmatched at round start.
        if (tier_len[v] > 0) {
          const auto first = old_tiers.begin() + tier_off[v];
          for (auto it = first; it != first + tier_len[v]; ++it)
            if (match[*it] == *it) new_tiers.push_back(*it);
          if (new_tiers.size() > start) ++hits;
        }

        // Full scan: score every unmatched neighbor, keep the feasible
        // ones tied at the best (score, weight) — higher inner product
        // first, then the lighter partner (balances coarse weights).
        if (new_tiers.size() == start) {
          const PartId fv = h.fixed_part(v);
          const Weight wv = h.vertex_weight(v);
          touched.clear();
          for (const NetId net : h.incident_nets(v)) {
            const Index size = h.net_size(net);
            if (size < 2 || size > cfg.max_scored_net_size) continue;
            const Weight c = h.net_cost(net);
            if (c == 0) continue;
            scanned += static_cast<std::uint64_t>(size);
            for (const VertexId u : h.pins(net)) {
              if (u == v) continue;
              if (match[u] != u) continue;
              if (score[u] == 0) touched.push_back(u);
              score[u] += c;
            }
          }
          Weight best_score = 0;
          Weight best_weight = 0;
          for (const VertexId u : touched) {
            const Weight s = score[u];
            score[u] = 0;  // reset for the next vertex
            // A partner above the degree cap could never reciprocate (it
            // sits out phase 1), so proposing to it is wasted.
            if (h.vertex_degree(u) > cfg.max_matching_degree) continue;
            if (!fixed_compatible(fv, h.fixed_part(u))) continue;
            const Weight wu = h.vertex_weight(u);
            if (max_vertex_weight > 0 && wv + wu > max_vertex_weight)
              continue;
            if (new_tiers.size() > start) {
              if (s < best_score || (s == best_score && wu > best_weight))
                continue;  // below the tier
              if (s != best_score || wu != best_weight)
                new_tiers.resize(start);  // above it: a new tier
            }
            new_tiers.push_back(u);
            best_score = s;
            best_weight = wu;
          }
        }
        tier_off[v] = static_cast<Index>(start);
        tier_len[v] = static_cast<Index>(new_tiers.size() - start);
        if (tier_len[v] == 0) continue;

        // Selection within the tier: the smaller salted hash, then the
        // smaller id (total order). The hash is only needed on a tie.
        VertexId best = new_tiers[start];
        if (tier_len[v] > 1) {
          std::uint64_t best_hash =
              derive_seed(salt, static_cast<std::uint64_t>(best.v));
          for (std::size_t i = start + 1; i < new_tiers.size(); ++i) {
            const VertexId u = new_tiers[i];
            const std::uint64_t hu =
                derive_seed(salt, static_cast<std::uint64_t>(u.v));
            if (hu < best_hash || (hu == best_hash && u < best)) {
              best = u;
              best_hash = hu;
            }
          }
        }
        prop[v] = best;
        ++proposed;
      }
      proposals_of[static_cast<std::size_t>(t)] = proposed;
      scanned_of[static_cast<std::size_t>(t)] += scanned;
      hits_of[static_cast<std::size_t>(t)] += hits;
    });

    // Phase 2: acceptance. A mutual pair (prop[v] == u, prop[u] == v) is
    // committed by the chunk owning the smaller endpoint — the unique
    // writer of both match cells.
    parallel_chunks(pool, n, [&](int t, Index begin, Index end) {
      std::uint64_t made = 0;
      for (Index vi = begin; vi < end; ++vi) {
        const VertexId v{vi};
        const VertexId u = prop[v];
        if (u == kInvalidVertex || v > u) continue;
        if (prop[u] != v) continue;
        match[v] = u;
        match[u] = v;
        ++made;
      }
      matched_of[static_cast<std::size_t>(t)] = made;
    });

    std::uint64_t round_proposals = 0;
    std::uint64_t round_matched = 0;
    for (int t = 0; t < num_threads; ++t) {
      round_proposals += proposals_of[static_cast<std::size_t>(t)];
      round_matched += matched_of[static_cast<std::size_t>(t)];
    }
    total_proposals += round_proposals;
    // No proposals at all is terminal: feasibility does not depend on the
    // salt, so no future round can differ. No *matches* is not — the next
    // salt reshuffles the tie-broken preferences.
    if (round_proposals == 0) break;
    stale = round_matched == 0 ? stale + 1 : 0;
  }

  // The stores go back to the arena empty. Their size follows tie widths,
  // not n; on dense nets it exceeds the level's pin count, and a pooled
  // store would keep the finest level's ties resident for the rest of the
  // multilevel call (or the server's lifetime).
  for (Borrowed<VertexId>& store : tiers) std::vector<VertexId>().swap(*store);

  std::uint64_t total_scanned = 0;
  std::uint64_t total_hits = 0;
  for (int t = 0; t < num_threads; ++t) {
    total_scanned += scanned_of[static_cast<std::size_t>(t)];
    total_hits += hits_of[static_cast<std::size_t>(t)];
  }
  static obs::CachedCounter rounds_counter("coarsen.ipm_rounds");
  static obs::CachedCounter proposals_counter("coarsen.ipm_proposals");
  static obs::CachedCounter scanned_counter("coarsen.ipm_pins_scanned");
  static obs::CachedCounter hits_counter("coarsen.ipm_tier_hits");
  rounds_counter += static_cast<std::uint64_t>(rounds);
  proposals_counter += total_proposals;
  scanned_counter += total_scanned;
  hits_counter += total_hits;

  // Postcondition: match is an involution and respects fixed compatibility.
#ifndef NDEBUG
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    HGR_ASSERT(match[u] == v);
    if (u != v)
      HGR_ASSERT(fixed_compatible(h.fixed_part(v), h.fixed_part(u)));
  }
#endif
  return match;
}

}  // namespace hgr
