// Property tests for the incremental cut/gain structure: every maintained
// quantity (cut, pin counts, connectivity bits, leave gains, part weights)
// must stay identical to a from-scratch recomputation under arbitrary
// move sequences — including repeated moves of the same vertex and
// instances with fixed vertices. Runs in the TSan/chaos CI matrix.
#include "partition/gain_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "metrics/cut.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::brute_force_connectivity_cut;
using testing::random_hypergraph;
using testing::random_partition;

Index scratch_pin_count(const Hypergraph& h, const Partition& p, NetId net,
                        PartId q) {
  Index count = 0;
  for (const VertexId v : h.pins(net))
    if (p[v] == q) ++count;
  return count;
}

Weight scratch_leave_gain(const Hypergraph& h, const Partition& p,
                          VertexId v) {
  Weight g = 0;
  for (const NetId net : h.incident_nets(v))
    if (scratch_pin_count(h, p, net, p[v]) == 1) g += h.net_cost(net);
  return g;
}

void expect_matches_scratch(const Hypergraph& h, const Partition& p,
                            const GainCache& cache) {
  ASSERT_EQ(cache.cut(), brute_force_connectivity_cut(h, p));
  ASSERT_EQ(cache.cut(), connectivity_cut(h, p));
  IdVector<PartId, Weight> part_w(p.k, 0);
  for (const VertexId v : h.vertices()) {
    ASSERT_EQ(cache.part_of(v), p[v]);
    ASSERT_EQ(cache.leave_gain(v), scratch_leave_gain(h, p, v)) << "v=" << v;
    part_w[p[v]] += h.vertex_weight(v);
  }
  for (const PartId q : p.parts())
    ASSERT_EQ(cache.part_weight(q), part_w[q]);
  for (const NetId net : h.nets()) {
    for (const PartId q : p.parts()) {
      const Index count = scratch_pin_count(h, p, net, q);
      ASSERT_EQ(cache.pin_count(net, q), count) << "net=" << net;
      ASSERT_EQ(cache.net_touches(net, q), count > 0) << "net=" << net;
    }
  }
}

TEST(GainCacheProperty, RandomMovesMatchScratchRecomputation) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Index k = 5;
    const Hypergraph h = random_hypergraph(40, 80, 5, 3, seed);
    Partition p = random_partition(40, k, seed + 100);
    GainCache cache(h, p);
    expect_matches_scratch(h, p, cache);
    Rng rng(seed + 9);
    for (int step = 0; step < 150; ++step) {
      const VertexId v{static_cast<Index>(rng.below(40))};
      PartId to{static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
      if (to == p[v]) to = PartId{(to.v + 1) % k};
      cache.apply_move(v, to);
      p[v] = to;
      // Cut identity at every step; the full table every 25 steps.
      ASSERT_EQ(cache.cut(), brute_force_connectivity_cut(h, p))
          << "seed=" << seed << " step=" << step;
      if (step % 25 == 0) expect_matches_scratch(h, p, cache);
    }
    expect_matches_scratch(h, p, cache);
    cache.validate(check::CheckLevel::kParanoid);
  }
}

TEST(GainCacheProperty, RepeatedMovesOfSameVertexWithFixedNeighbors) {
  // A vertex ping-ponging through every part of a mostly-fixed instance:
  // the sole-pin transitions (1 <-> 2 pins in a part) happen on every hop.
  HypergraphBuilder b(5);
  b.add_net({0, 1}, 2);
  b.add_net({0, 2}, 3);
  b.add_net({0, 3, 4}, 1);
  b.add_net({1, 2, 3}, 5);
  b.set_fixed_part(1, PartId{0});
  b.set_fixed_part(2, PartId{1});
  b.set_fixed_part(3, PartId{2});
  const Hypergraph h = b.finalize();
  const Index k = 3;
  Partition p(k, 5);
  p[VertexId{0}] = PartId{0};
  p[VertexId{1}] = PartId{0};
  p[VertexId{2}] = PartId{1};
  p[VertexId{3}] = PartId{2};
  p[VertexId{4}] = PartId{2};
  GainCache cache(h, p);
  expect_matches_scratch(h, p, cache);
  Rng rng(3);
  for (int step = 0; step < 60; ++step) {
    // Only the free vertices 0 and 4 ever move (callers skip fixed ones).
    const VertexId v{rng.below(2) == 0 ? 0 : 4};
    PartId to{static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
    if (to == p[v]) to = PartId{(to.v + 1) % k};
    const Weight predicted = cache.move_gain(v, to);
    const Weight before = cache.cut();
    cache.apply_move(v, to);
    p[v] = to;
    ASSERT_EQ(cache.cut(), before - predicted) << "step=" << step;
    expect_matches_scratch(h, p, cache);
  }
  cache.validate(check::CheckLevel::kParanoid);
}

TEST(GainCacheProperty, MoveGainEqualsCutDelta) {
  for (std::uint64_t seed = 10; seed < 13; ++seed) {
    const Index k = 4;
    const Hypergraph h = random_hypergraph(30, 60, 4, 3, seed);
    Partition p = random_partition(30, k, seed);
    GainCache cache(h, p);
    Rng rng(seed);
    for (int step = 0; step < 80; ++step) {
      const VertexId v{static_cast<Index>(rng.below(30))};
      PartId to{static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
      if (to == p[v]) to = PartId{(to.v + 1) % k};
      const Weight g = cache.move_gain(v, to);
      const Weight before = cache.cut();
      cache.apply_move(v, to);
      p[v] = to;
      ASSERT_EQ(cache.cut(), before - g);
    }
  }
}

TEST(GainCacheProperty, ManyPartsExerciseMultiWordBitsets) {
  // k=70 needs two 64-bit words per connectivity row; the candidate and
  // touch paths must handle the word boundary.
  const Index k = 70;
  const Hypergraph h = random_hypergraph(90, 120, 6, 2, 42);
  Partition p = random_partition(90, k, 7);
  GainCache cache(h, p);
  expect_matches_scratch(h, p, cache);
  Rng rng(11);
  std::vector<PartId> candidates;
  std::vector<std::uint64_t> words;
  for (int step = 0; step < 120; ++step) {
    const VertexId v{static_cast<Index>(rng.below(90))};
    // Brute-force candidate destinations: distinct parts of co-pins.
    std::set<PartId> expected;
    for (const NetId net : h.incident_nets(v))
      for (const VertexId u : h.pins(net))
        if (p[u] != p[v]) expected.insert(p[u]);
    cache.candidate_parts_into(candidates, v, words);
    ASSERT_EQ(std::vector<PartId>(expected.begin(), expected.end()),
              candidates)
        << "step=" << step;
    ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    PartId to{static_cast<Index>(rng.below(static_cast<std::uint64_t>(k)))};
    if (to == p[v]) to = PartId{(to.v + 1) % k};
    cache.apply_move(v, to);
    p[v] = to;
    ASSERT_EQ(cache.cut(), brute_force_connectivity_cut(h, p));
  }
  cache.validate(check::CheckLevel::kParanoid);
}

/// Listener that records every delta-gain event it sees.
struct RecordingListener {
  struct Event {
    char kind;  // 'G'ained, 'J'oined, 'L'ost, 'R'emains
    NetId net;
    Weight cost;
  };
  std::vector<Event> events;

  void net_gained_part(NetId net, PartId, Weight c) {
    events.push_back({'G', net, c});
  }
  void sole_pin_joined(NetId net, VertexId, PartId, Weight c) {
    events.push_back({'J', net, c});
  }
  void net_lost_part(NetId net, PartId, Weight c) {
    events.push_back({'L', net, c});
  }
  void sole_pin_remains(NetId net, VertexId, PartId, Weight c) {
    events.push_back({'R', net, c});
  }
};

TEST(GainCache, ZeroCostNetsFireNoEventsButStayConsistent) {
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 0);  // free net: maintained, but silent
  b.add_net({0, 2}, 4);
  const Hypergraph h = b.finalize();
  Partition p(2, 3);
  p[VertexId{0}] = PartId{0};
  p[VertexId{1}] = PartId{1};
  p[VertexId{2}] = PartId{1};
  GainCache cache(h, p);
  EXPECT_EQ(cache.cut(), 4);  // the zero-cost net never contributes

  RecordingListener listener;
  cache.apply_move(VertexId{0}, PartId{1}, listener);
  p[VertexId{0}] = PartId{1};
  EXPECT_EQ(cache.cut(), 0);
  expect_matches_scratch(h, p, cache);
  // Both events come from the costed net; the zero-cost net is silent
  // even though vertex 0 left it as the sole part-0 pin.
  ASSERT_EQ(listener.events.size(), 2u);
  for (const auto& e : listener.events) {
    EXPECT_EQ(e.net, NetId{1});
    EXPECT_EQ(e.cost, 4);
  }
  EXPECT_EQ(listener.events[0].kind, 'J');  // joined pins in part 1
  EXPECT_EQ(listener.events[1].kind, 'L');  // part 0 lost its last pin
}

TEST(GainCache, PartitionConstructorMatchesSpanConstructor) {
  const Hypergraph h = random_hypergraph(25, 40, 4, 2, 5);
  const Partition p = random_partition(25, 3, 6);
  GainCache from_partition(h, p);
  GainCache from_span(h, p.k, p.assignment);
  EXPECT_EQ(from_partition.cut(), from_span.cut());
  EXPECT_EQ(from_partition.k(), from_span.k());
  for (const PartId q : p.parts())
    EXPECT_EQ(from_partition.part_weight(q), from_span.part_weight(q));
}

// The k-way move rule on hand-sized cases. Vertex 0 is the mover; vertex
// weights are 1; vertices without nets only add weight to their part.
TEST(GainCache, BestMoveRule) {
  struct Case {
    const char* what;
    std::vector<std::pair<std::vector<Index>, Weight>> nets;
    std::vector<Index> parts;
    Weight max_w;
    Index want_to;  // -1 = no acceptable move
    Weight want_gain;
  };
  const std::vector<Case> cases = {
      {"positive gains tie: lower part id", {{{0, 1}, 1}, {{0, 2}, 1}},
       {0, 1, 2}, 10, 1, 1},
      {"positive gains tie: lighter part first", {{{0, 1}, 1}, {{0, 2}, 1}},
       {0, 1, 2, 1}, 10, 2, 1},
      {"zero gain, balance not strictly better", {{{0, 1}, 1}, {{0, 2}, 1}},
       {0, 1, 0}, 10, -1, 0},
      {"zero gain, balance strictly better", {{{0, 1}, 1}, {{0, 2}, 1}},
       {0, 1, 0, 0}, 10, 1, 0},
      {"negative gain off a part within max_w", {{{0, 1}, 2}, {{0, 2}, 3}},
       {0, 1, 0, 1, 1}, 10, -1, 0},
      {"negative gain off an overweight part", {{{0, 1}, 2}, {{0, 2}, 3}},
       {0, 1, 0, 0, 0}, 3, 1, -1},
      {"destination over max_w", {{{0, 1}, 2}, {{0, 2}, 3}},
       {0, 1, 0, 0, 0}, 1, -1, 0},
  };
  for (const Case& c : cases) {
    const auto n = static_cast<Index>(c.parts.size());
    HypergraphBuilder b(n);
    for (const auto& [pins, cost] : c.nets) b.add_net(pins, cost);
    const Hypergraph h = b.finalize();
    Partition p(3, n);
    for (Index v = 0; v < n; ++v)
      p[VertexId{v}] = PartId{c.parts[static_cast<std::size_t>(v)]};
    const GainCache cache(h, p);
    std::vector<PartId> candidates;
    std::vector<Weight> gain_to;
    std::vector<std::uint64_t> words;
    const GainCache::Move m =
        cache.best_move(VertexId{0}, c.max_w, candidates, gain_to, words);
    EXPECT_EQ(m.to, c.want_to < 0 ? kNoPart : PartId{c.want_to}) << c.what;
    if (m.to != kNoPart) {
      EXPECT_EQ(m.gain, c.want_gain) << c.what;
      EXPECT_EQ(m.gain, cache.move_gain(VertexId{0}, m.to)) << c.what;
    }
    // gain_to is left at k zeros for the next call.
    EXPECT_TRUE(std::all_of(gain_to.begin(), gain_to.end(),
                            [](Weight w) { return w == 0; }))
        << c.what;
  }
}

}  // namespace
}  // namespace hgr
