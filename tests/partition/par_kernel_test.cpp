// Thread-count invariance of the thread-parallel kernels: matching,
// contraction, and k-way refinement must produce bit-identical results
// whether they run serially, on a pool of one, or on a pool of four —
// the per-kernel half of the determinism contract (docs/PARALLELISM.md);
// integration/thread_determinism_test.cpp checks the whole pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "hypergraph/builder.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "partition/contract.hpp"
#include "partition/kway_refine.hpp"
#include "partition/matching_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::planted_duplicates_hypergraph;
using testing::random_hypergraph;
using testing::random_pair_matching;
using testing::random_partition;

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (const VertexId v : a.vertices()) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
    EXPECT_EQ(a.vertex_size(v), b.vertex_size(v));
  }
  for (const NetId net : a.nets()) {
    ASSERT_EQ(a.net_size(net), b.net_size(net));
    EXPECT_EQ(a.net_cost(net), b.net_cost(net));
    const auto pa = a.pins(net);
    const auto pb = b.pins(net);
    for (Index i = 0; i < a.net_size(net); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

IdVector<VertexId, VertexId> match_with_threads(const Hypergraph& h,
                                                const PartitionConfig& cfg,
                                                int threads,
                                                std::uint64_t seed) {
  Rng rng(seed);
  if (threads == 0) return ipm_matching(h, cfg, 0, rng, nullptr);
  ThreadPool pool(threads);
  Workspace ws;
  ws.set_pool(&pool);
  return ipm_matching(h, cfg, 0, rng, &ws);
}

// Reference for ipm_matching: the same mutual-proposal rounds, but every
// round rescans every unmatched vertex's neighborhood from scratch.
// Serial; the kernel's output does not depend on the thread count.
IdVector<VertexId, VertexId> full_rescan_matching(const Hypergraph& h,
                                                  const PartitionConfig& cfg,
                                                  Weight max_vertex_weight,
                                                  Rng& rng) {
  constexpr Index kMaxRounds = 64;
  constexpr int kStaleRounds = 4;
  const Index n = h.num_vertices();
  IdVector<VertexId, VertexId> match(n);
  for (const VertexId v : h.vertices()) match[v] = v;
  IdVector<VertexId, Weight> score(n, 0);
  IdVector<VertexId, VertexId> prop(n, kInvalidVertex);
  std::vector<VertexId> touched;

  Index rounds = 0;
  int stale = 0;
  while (rounds < kMaxRounds && stale < kStaleRounds) {
    ++rounds;
    const std::uint64_t salt = rng();
    std::uint64_t proposals = 0;
    for (const VertexId v : h.vertices()) {
      prop[v] = kInvalidVertex;
      if (match[v] != v) continue;
      if (h.vertex_degree(v) > cfg.max_matching_degree) continue;
      const PartId fv = h.fixed_part(v);
      const Weight wv = h.vertex_weight(v);

      touched.clear();
      for (const NetId net : h.incident_nets(v)) {
        const Index size = h.net_size(net);
        if (size < 2 || size > cfg.max_scored_net_size) continue;
        const Weight c = h.net_cost(net);
        if (c == 0) continue;
        for (const VertexId u : h.pins(net)) {
          if (u == v) continue;
          if (match[u] != u) continue;
          if (score[u] == 0) touched.push_back(u);
          score[u] += c;
        }
      }

      VertexId best = kInvalidVertex;
      Weight best_score = 0;
      Weight best_weight = 0;
      std::uint64_t best_hash = 0;
      for (const VertexId u : touched) {
        const Weight s = score[u];
        score[u] = 0;
        if (h.vertex_degree(u) > cfg.max_matching_degree) continue;
        if (!fixed_compatible(fv, h.fixed_part(u))) continue;
        if (max_vertex_weight > 0 &&
            wv + h.vertex_weight(u) > max_vertex_weight)
          continue;
        const Weight wu = h.vertex_weight(u);
        const std::uint64_t hu =
            derive_seed(salt, static_cast<std::uint64_t>(u.v));
        const bool better =
            s > best_score ||
            (s == best_score &&
             (best == kInvalidVertex || wu < best_weight ||
              (wu == best_weight &&
               (hu < best_hash || (hu == best_hash && u < best)))));
        if (better) {
          best = u;
          best_score = s;
          best_weight = wu;
          best_hash = hu;
        }
      }
      prop[v] = best;
      if (best != kInvalidVertex) ++proposals;
    }

    std::uint64_t matched = 0;
    for (const VertexId v : h.vertices()) {
      const VertexId u = prop[v];
      if (u == kInvalidVertex || v > u || prop[u] != v) continue;
      match[v] = u;
      match[u] = v;
      ++matched;
    }
    if (proposals == 0) break;
    stale = matched == 0 ? stale + 1 : 0;
  }
  return match;
}

// Unit costs and (mostly) unit weights, so most neighborhoods tie at the
// top score and the tie-break decides. Every 40th net is wider than the
// scored-net limit the test sets (10), and vertices 0 and 1 sit on
// enough extra nets to exceed its matching-degree limit (12).
struct TieCase {
  std::uint64_t seed;
  Weight cap;       // max_vertex_weight (0 = off)
  bool heavy;       // every 7th vertex weighs 2
  bool fixed;       // every 5th vertex fixed to one of 3 parts
  bool zero_costs;  // a quarter of the nets cost 0
};

Hypergraph tie_heavy_hypergraph(const TieCase& c) {
  constexpr Index n = 240;
  Rng rng(c.seed);
  HypergraphBuilder b(n);
  for (Index i = 0; i < 480; ++i) {
    const Index size =
        i % 40 == 0 ? 14 : 2 + static_cast<Index>(rng.below(4));
    std::vector<Index> pins;
    for (Index p = 0; p < size; ++p)
      pins.push_back(static_cast<Index>(rng.below(n)));
    b.add_net(pins, c.zero_costs && rng.below(4) == 0 ? 0 : 1);
  }
  for (Index hub = 0; hub < 2; ++hub)
    for (Index i = 0; i < 16; ++i)
      b.add_net({hub, static_cast<Index>(rng.below(n))}, 1);
  for (Index v = 0; v < n; ++v) {
    if (c.heavy && v % 7 == 0) b.set_vertex_weight(v, 2);
    if (c.fixed && v % 5 == 0) b.set_fixed_part(v, PartId{(v / 5) % 3});
  }
  return b.finalize();
}

TEST(ParKernel, MatchingEqualsFullRescanReference) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.max_scored_net_size = 10;
  cfg.max_matching_degree = 12;
  std::vector<TieCase> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({seed, 0, false, false, false});
    cases.push_back({seed, 3, true, false, false});
    cases.push_back({seed, 0, false, true, false});
    cases.push_back({seed, 0, false, false, true});
    cases.push_back({seed, 3, true, true, true});
  }
  cases.push_back({4, 1, false, false, false});  // cap 1: no feasible pair

  for (const TieCase& c : cases) {
    const Hypergraph h = tie_heavy_hypergraph(c);
    ASSERT_GT(h.vertex_degree(VertexId{0}), cfg.max_matching_degree);
    Rng ref_rng(c.seed);
    const auto want = full_rescan_matching(h, cfg, c.cap, ref_rng);
    const std::uint64_t want_next = ref_rng();
    for (const int threads : {0, 1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << c.seed << " cap " << c.cap << " heavy "
                   << c.heavy << " fixed " << c.fixed << " zero_costs "
                   << c.zero_costs << " threads " << threads);
      std::optional<ThreadPool> pool;
      Workspace ws;
      if (threads > 0) {
        pool.emplace(threads);
        ws.set_pool(&*pool);
      }
      // Twice through one arena (threads > 0): pooled tier stores and
      // score slices must not leak between calls.
      for (int call = 0; call < (threads > 0 ? 2 : 1); ++call) {
        Rng rng(c.seed);
        EXPECT_EQ(ipm_matching(h, cfg, c.cap, rng,
                               threads > 0 ? &ws : nullptr),
                  want);
        EXPECT_EQ(rng(), want_next);
      }
    }
  }
  // The cases above must actually reuse tiers across rounds.
  EXPECT_GT(reg.counter_value("coarsen.ipm_tier_hits"), 0u);
  EXPECT_GT(reg.counter_value("coarsen.ipm_pins_scanned"), 0u);
}

TEST(ParKernel, MatchingIsThreadCountInvariant) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const Hypergraph h = random_hypergraph(400, 800, 6, 3, seed);
    const auto serial = match_with_threads(h, PartitionConfig{}, 0, seed);
    const auto t1 = match_with_threads(h, PartitionConfig{}, 1, seed);
    const auto t4 = match_with_threads(h, PartitionConfig{}, 4, seed);
    EXPECT_EQ(serial, t1) << "seed " << seed;
    EXPECT_EQ(serial, t4) << "seed " << seed;
  }
}

TEST(ParKernel, MatchingWithFixedVerticesIsThreadCountInvariant) {
  Hypergraph h = random_hypergraph(200, 400, 5, 3, 3);
  std::vector<PartId> fixed(200, kNoPart);
  for (Index v = 0; v < 200; v += 7) fixed[v] = PartId{v % 4};
  h.set_fixed_parts(std::move(fixed));
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const auto serial = match_with_threads(h, cfg, 0, 13);
  const auto t4 = match_with_threads(h, cfg, 4, 13);
  EXPECT_EQ(serial, t4);
}

TEST(ParKernel, ContractIsThreadCountInvariant) {
  // An IPM matching of a random hypergraph, and a random pairing of one
  // with planted exact, near and post-contraction duplicates plus nets
  // that collapse below 2 pins.
  struct Case {
    Hypergraph h;
    IdVector<VertexId, VertexId> match;
  };
  std::vector<Case> cases;
  {
    Hypergraph h = random_hypergraph(400, 800, 6, 3, 5);
    auto match = match_with_threads(h, PartitionConfig{}, 0, 5);
    cases.push_back({std::move(h), std::move(match)});
  }
  for (const std::uint64_t seed : {7u, 8u}) {
    auto match = random_pair_matching(400, seed);
    Hypergraph h = planted_duplicates_hypergraph(400, 1200, match, seed);
    cases.push_back({std::move(h), std::move(match)});
  }

  ThreadPool pool(4);
  Workspace ws;
  ws.set_pool(&pool);
  for (const Case& c : cases) {
    const CoarseLevel serial = contract(c.h, c.match, nullptr);
    const CoarseLevel threaded = contract(c.h, c.match, &ws);
    // Run a second time through the now-warm arena: pooled (possibly
    // dirty) per-thread scratch must not change the result either.
    const CoarseLevel threaded2 = contract(c.h, c.match, &ws);

    EXPECT_EQ(serial.fine_to_coarse, threaded.fine_to_coarse);
    expect_same_hypergraph(serial.coarse, threaded.coarse);
    EXPECT_EQ(serial.fine_to_coarse, threaded2.fine_to_coarse);
    expect_same_hypergraph(serial.coarse, threaded2.coarse);
  }
}

TEST(ParKernel, KwayRefineIsThreadCountInvariant) {
  const Hypergraph h = random_hypergraph(300, 600, 6, 3, 17);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.epsilon = 0.2;

  const auto refine_with = [&](int threads) {
    Partition p = random_partition(300, 4, 99);
    Rng rng(23);
    if (threads == 0) {
      const KwayRefineResult r = kway_refine(h, p, cfg, rng, 6, nullptr);
      return std::pair{p, r};
    }
    ThreadPool pool(threads);
    Workspace ws;
    ws.set_pool(&pool);
    const KwayRefineResult r = kway_refine(h, p, cfg, rng, 6, &ws);
    return std::pair{p, r};
  };

  const auto [p_serial, r_serial] = refine_with(0);
  const auto [p_t1, r_t1] = refine_with(1);
  const auto [p_t4, r_t4] = refine_with(4);

  EXPECT_EQ(p_serial.assignment, p_t1.assignment);
  EXPECT_EQ(p_serial.assignment, p_t4.assignment);
  EXPECT_EQ(r_serial.final_cut, r_t4.final_cut);
  EXPECT_EQ(r_serial.moves, r_t4.moves);
  EXPECT_EQ(r_serial.passes, r_t4.passes);
  // The refinement actually did something, so invariance is non-vacuous.
  EXPECT_GT(r_serial.moves, 0);
  EXPECT_LT(r_serial.final_cut, r_serial.initial_cut);
  EXPECT_EQ(connectivity_cut(h, p_t4), r_t4.final_cut);
}

TEST(ParKernel, KwayRefineRespectsFixedVerticesUnderThreads) {
  Hypergraph h = random_hypergraph(200, 400, 5, 3, 29);
  std::vector<PartId> fixed(200, kNoPart);
  for (Index v = 0; v < 200; v += 9) fixed[v] = PartId{v % 3};
  h.set_fixed_parts(std::move(fixed));
  PartitionConfig cfg;
  cfg.num_parts = 3;
  cfg.epsilon = 0.3;
  Partition p = random_partition(200, 3, 7);
  for (const VertexId v : h.vertices())
    if (h.fixed_part(v) != kNoPart) p[v] = h.fixed_part(v);

  ThreadPool pool(4);
  Workspace ws;
  ws.set_pool(&pool);
  Rng rng(31);
  kway_refine(h, p, cfg, rng, 4, &ws);
  for (const VertexId v : h.vertices()) {
    if (h.fixed_part(v) != kNoPart) {
      EXPECT_EQ(p[v], h.fixed_part(v));
    }
  }
}

}  // namespace
}  // namespace hgr
