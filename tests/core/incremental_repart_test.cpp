// The O(delta) epoch fast path: routing decisions, drift/imbalance
// escalation, paranoid cut identity against from-scratch recomputation,
// the session's resident cache, and tier bookkeeping through
// EpochSession::repartition / run_epochs.
#include "core/epoch_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/epoch_driver.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"
#include "workload/perturb.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

RepartitionerConfig inc_cfg(Index k, IncrementalMode mode) {
  RepartitionerConfig cfg;
  cfg.partition.num_parts = k;
  cfg.partition.epsilon = 0.5;
  cfg.partition.incremental = mode;
  cfg.partition.check_level = check::CheckLevel::kParanoid;
  return cfg;
}

/// Random nets over unit-weight vertices: a round-robin start is exactly
/// balanced, so escalation tests control their rejection reason.
Hypergraph random_unit_hypergraph(Index n, Index nets, std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b(n);
  for (Index i = 0; i < nets; ++i) {
    const Index pins = static_cast<Index>(2 + rng.below(3));
    std::vector<Index> net;
    for (Index j = 0; j < pins; ++j)
      net.push_back(static_cast<Index>(rng.below(
          static_cast<std::uint64_t>(n))));
    b.add_net(net, 1 + static_cast<Weight>(rng.below(3)));
  }
  return b.finalize();
}

/// Balanced round-robin start (epsilon 0.5 gives it plenty of headroom).
Partition round_robin(const Hypergraph& h, Index k) {
  Partition p(k, h.num_vertices());
  for (Index v = 0; v < h.num_vertices(); ++v) p[VertexId{v}] = PartId{v % k};
  return p;
}

/// Sets `count` random vertices of the session's hypergraph to a random
/// weight in [1, max_w] and returns the matching known delta (ascending,
/// duplicates removed).
EpochDelta perturb_weights(EpochSession& session, Rng& rng, Index count,
                           Weight max_w) {
  const Index n = session.hypergraph().num_vertices();
  EpochDelta delta;
  for (Index i = 0; i < count; ++i) {
    const VertexId v{
        static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)))};
    session.set_vertex_weight(
        v, 1 + static_cast<Weight>(
                   rng.below(static_cast<std::uint64_t>(max_w))));
    delta.changed.push_back(v);
  }
  std::sort(delta.changed.begin(), delta.changed.end());
  delta.changed.erase(std::unique(delta.changed.begin(), delta.changed.end()),
                      delta.changed.end());
  delta.known = true;
  return delta;
}

/// What a session with no history answers for `resident`'s hypergraph and
/// partition. `baseline_p` is the partition whose cut is `resident`'s
/// baseline (the cut does not depend on vertex weights).
IncrementalOutcome fresh_attempt(const EpochSession& resident,
                                 const Partition& baseline_p,
                                 const EpochDelta& delta,
                                 const RepartitionerConfig& cfg) {
  EpochSession fresh;
  fresh.bootstrap(Hypergraph(resident.hypergraph()), baseline_p);
  EXPECT_EQ(fresh.baseline_cut(), resident.baseline_cut());
  fresh.set_partition(resident.partition());
  return fresh.try_epoch(delta, cfg);
}

void expect_same_outcome(const IncrementalOutcome& got,
                         const IncrementalOutcome& want,
                         const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.partition.assignment, want.partition.assignment);
  EXPECT_EQ(got.cut, want.cut);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_EQ(got.attempted, want.attempted);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_DOUBLE_EQ(got.drift, want.drift);
}

/// Runs `attempt` and returns how much it raised counter `name`.
template <typename F>
std::uint64_t counter_rise(const obs::Registry& reg, const char* name,
                           F&& attempt) {
  const std::uint64_t before = reg.counter_value(name);
  attempt();
  return reg.counter_value(name) - before;
}

TEST(EpochDeltaTracker, FirstEpochIsUnknownThenDiffsWeightAndPresence) {
  GraphBuilder b1(4);
  b1.add_edge(0, 1, 1);
  b1.add_edge(1, 2, 1);
  b1.add_edge(2, 3, 1);
  const Graph g1 = b1.finalize();
  EpochDeltaTracker tracker;
  const std::vector<Index> identity = {0, 1, 2, 3};

  const EpochDelta first = tracker.observe(g1, identity);
  EXPECT_FALSE(first.known);
  EXPECT_DOUBLE_EQ(first.fraction(4), 1.0);

  // Same structure, vertex 2's weight changed.
  GraphBuilder b2(4);
  b2.add_edge(0, 1, 1);
  b2.add_edge(1, 2, 1);
  b2.add_edge(2, 3, 1);
  b2.set_vertex_weight(2, 5);
  const EpochDelta second = tracker.observe(b2.finalize(), identity);
  EXPECT_TRUE(second.known);
  ASSERT_EQ(second.changed.size(), 1u);
  EXPECT_EQ(second.changed[0], VertexId{2});
  EXPECT_EQ(second.removed, 0);
  EXPECT_DOUBLE_EQ(second.fraction(4), 0.25);

  // Base vertex 3 disappears, a brand-new base vertex 7 arrives.
  GraphBuilder b3(4);
  b3.add_edge(0, 1, 1);
  b3.add_edge(1, 2, 1);
  b3.add_edge(2, 3, 1);
  b3.set_vertex_weight(2, 5);
  const EpochDelta third = tracker.observe(b3.finalize(), {0, 1, 2, 7});
  EXPECT_TRUE(third.known);
  ASSERT_EQ(third.changed.size(), 1u);
  EXPECT_EQ(third.changed[0], VertexId{3});  // compact id of new base vertex 7
  EXPECT_EQ(third.removed, 1);     // base vertex 3 vanished
  EXPECT_DOUBLE_EQ(third.fraction(4), 0.5);
}

TEST(IncrementalRepart, RoutingRejectsOffNoBaselineAndLargeDeltas) {
  const Hypergraph h = random_hypergraph(50, 100, 4, 3, 2);
  const Partition p = round_robin(h, 4);
  EpochDelta small;
  small.known = true;
  small.changed = {VertexId{0}};

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), p);
  IncrementalOutcome off =
      inc.try_epoch(small, inc_cfg(4, IncrementalMode::kOff));
  EXPECT_FALSE(off.attempted);
  EXPECT_EQ(off.reason, "off");

  EpochSession no_baseline;
  no_baseline.replace_structure(Hypergraph(h), p, /*keep_baseline=*/false);
  IncrementalOutcome cold =
      no_baseline.try_epoch(small, inc_cfg(4, IncrementalMode::kAuto));
  EXPECT_FALSE(cold.attempted);
  EXPECT_EQ(cold.reason, "no_baseline");

  // Unknown deltas read as fraction 1.0: auto mode escalates...
  IncrementalOutcome unknown =
      inc.try_epoch(EpochDelta{}, inc_cfg(4, IncrementalMode::kAuto));
  EXPECT_FALSE(unknown.attempted);
  EXPECT_EQ(unknown.reason, "delta_frac");
  // ...while forced-on mode repairs over every vertex.
  IncrementalOutcome forced =
      inc.try_epoch(EpochDelta{}, inc_cfg(4, IncrementalMode::kOn));
  EXPECT_TRUE(forced.attempted);
  EXPECT_TRUE(forced.accepted);
}

TEST(IncrementalRepart, SmallDeltaAcceptedWithCutIdenticalToScratch) {
  const Hypergraph h = random_hypergraph(200, 400, 5, 3, 11);
  const Partition old_p = round_robin(h, 4);
  const Weight baseline = connectivity_cut(h, old_p);

  EpochDelta delta;
  delta.known = true;
  delta.changed = {VertexId{3}, VertexId{17}};  // 1% of the vertices

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), old_p);
  EXPECT_EQ(inc.baseline_cut(), baseline);
  const IncrementalOutcome out =
      inc.try_epoch(delta, inc_cfg(4, IncrementalMode::kAuto));
  EXPECT_TRUE(out.attempted);
  EXPECT_TRUE(out.accepted) << out.reason;
  // Starting balanced, greedy repair never worsens the cut: drift <= 0.
  EXPECT_LE(out.cut, baseline);
  EXPECT_LE(out.drift, 0.0);
  // The incrementally maintained cut is identical to scratch recomputation
  // (the paranoid check inside try_epoch enforces this too).
  EXPECT_EQ(out.cut, connectivity_cut(h, out.partition));
  EXPECT_EQ(out.cut, testing::brute_force_connectivity_cut(h, out.partition));
}

TEST(IncrementalRepart, DriftPastThresholdEscalates) {
  const Hypergraph h = random_hypergraph(80, 160, 4, 3, 5);
  const Partition p = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kOn);
  // Impossible bar: drift >= -1 by construction, so any result rejects.
  cfg.partition.incremental_max_drift = -2.0;

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), p);
  const IncrementalOutcome out = inc.try_epoch(EpochDelta{}, cfg);
  EXPECT_TRUE(out.attempted);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reason, "drift");
}

TEST(IncrementalRepart, UnfixableImbalanceEscalates) {
  // Part 0 is overweight purely from a fixed vertex: the fast path may
  // only shed the light free vertex, which cannot restore Eq. 1.
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 1);
  b.add_net({1, 2}, 1);
  b.set_vertex_weight(0, 10);
  b.set_vertex_weight(1, 1);
  b.set_vertex_weight(2, 1);
  b.set_fixed_part(0, PartId{0});
  const Hypergraph h = b.finalize();
  Partition p(2, 3);
  p[VertexId{0}] = PartId{0}; p[VertexId{1}] = PartId{0}; p[VertexId{2}] = PartId{1};

  RepartitionerConfig cfg = inc_cfg(2, IncrementalMode::kOn);
  cfg.partition.epsilon = 0.05;  // max part weight 6 << the fixed 10
  EpochSession inc;
  inc.bootstrap(Hypergraph(h), p);
  const IncrementalOutcome out = inc.try_epoch(EpochDelta{}, cfg);
  EXPECT_TRUE(out.attempted);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reason, "imbalance");
  EXPECT_EQ(out.partition[VertexId{0}], PartId{0});  // fixed vertex untouched
}

TEST(IncrementalResidentCache, WeightDeltasReuseOneCacheAndMatchFresh) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_hypergraph(300, 600, 5, 3, 41);
  const Partition start = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kAuto);
  cfg.partition.epsilon = 0.1;
  EpochSession resident;
  resident.bootstrap(Hypergraph(h), start);

  Rng rng(5);
  std::uint64_t builds = 0;
  int accepted = 0;
  for (int step = 0; step < 6; ++step) {
    const EpochDelta delta = perturb_weights(resident, rng, 4, 6);
    IncrementalOutcome got;
    const std::uint64_t validations =
        counter_rise(reg, "gain_cache.validations", [&] {
          builds += counter_rise(reg, "incremental.cache_builds", [&] {
            got = resident.try_epoch(delta, cfg);
          });
        });
    // A reused cache is validated after its sync and after the attempt.
    EXPECT_EQ(validations, step == 0 ? 1u : 2u) << "step " << step;
    expect_same_outcome(got, fresh_attempt(resident, start, delta, cfg),
                        "step " + std::to_string(step));
    if (got.accepted) {
      resident.set_partition(got.partition);
      ++accepted;
    }
  }
  EXPECT_EQ(builds, 1u);
  EXPECT_GE(accepted, 3);
}

TEST(IncrementalResidentCache, RejectedAttemptsAndForeignOldPartitionsSync) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_unit_hypergraph(200, 400, 43);
  Partition baseline_p = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kAuto);
  cfg.partition.epsilon = 0.1;
  EpochSession resident;
  resident.bootstrap(Hypergraph(h), baseline_p);
  EpochDelta one;
  one.known = true;
  one.changed = {VertexId{0}};

  std::uint64_t builds = 0;
  const auto step = [&](const RepartitionerConfig& c, const EpochDelta& d,
                        const std::string& where) {
    IncrementalOutcome got;
    builds += counter_rise(reg, "incremental.cache_builds",
                           [&] { got = resident.try_epoch(d, c); });
    expect_same_outcome(got, fresh_attempt(resident, baseline_p, d, c),
                        where);
    return got;
  };
  {
    // Drift rejection after repairing every vertex: the cache is left
    // holding moves the session never adopted.
    RepartitionerConfig drift = inc_cfg(4, IncrementalMode::kOn);
    drift.partition.epsilon = 0.1;
    drift.partition.incremental_max_drift = -2.0;
    const IncrementalOutcome rejected = step(drift, EpochDelta{}, "drift");
    EXPECT_EQ(rejected.reason, "drift");
    EXPECT_GT(rejected.moves, 0);
    step(cfg, one, "after drift");

    // Imbalance rejection: vertex 0 alone outweighs a part's bound, so
    // shedding its partners cannot restore Eq. 1.
    resident.set_vertex_weight(VertexId{0}, 200);
    const IncrementalOutcome heavy = step(cfg, one, "imbalance");
    EXPECT_EQ(heavy.reason, "imbalance");
    EXPECT_GT(heavy.moves, 0);
    resident.set_vertex_weight(VertexId{0}, 1);
    step(cfg, one, "after imbalance");

    // The full tier answers instead: a partition the cache never held.
    RepartitionerConfig full_cfg = cfg;
    full_cfg.partition.incremental = IncrementalMode::kOff;
    full_cfg.partition.check_level = check::CheckLevel::kOff;
    const GuardedRepartitionResult full = resident.repartition(
        RepartAlgorithm::kHypergraphRepart, one, full_cfg);
    EXPECT_EQ(full.tier, RepartTier::kFull);
    EXPECT_EQ(resident.baseline_cut(), full.result.cost.comm_volume);
    baseline_p = resident.partition();
    step(cfg, one, "after full tier");

    // So does a caller's own assignment.
    resident.set_partition(round_robin(h, 4));
    step(cfg, one, "after set_partition");
  }
  EXPECT_EQ(builds, 1u);
}

TEST(IncrementalResidentCache, NewStructureOrObjectForcesRebuild) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_hypergraph(150, 300, 4, 3, 47);
  const Partition p = round_robin(h, 4);
  const RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kOn);
  EpochSession resident;
  resident.bootstrap(Hypergraph(h), p);
  EpochDelta delta;
  delta.known = true;
  delta.changed = {VertexId{1}};

  const auto builds_for = [&](const std::string& where) {
    IncrementalOutcome got;
    const std::uint64_t builds =
        counter_rise(reg, "incremental.cache_builds",
                     [&] { got = resident.try_epoch(delta, cfg); });
    expect_same_outcome(got, fresh_attempt(resident, p, delta, cfg), where);
    return builds;
  };
  EXPECT_EQ(builds_for("first"), 1u);
  EXPECT_EQ(builds_for("reuse"), 0u);

  resident.set_vertex_weight(VertexId{1}, 5);
  EXPECT_EQ(builds_for("weight edit"), 0u);

  // Replacing the structure always drops the cache, even for an identical
  // copy: it described the released hypergraph.
  resident.replace_structure(Hypergraph(resident.hypergraph()), p,
                             /*keep_baseline=*/true);
  EXPECT_EQ(builds_for("identical replacement"), 1u);

  resident.bootstrap(random_hypergraph(150, 300, 4, 3, 53), p);
  EXPECT_EQ(builds_for("other structure"), 1u);
  EXPECT_EQ(builds_for("reuse again"), 0u);
}

TEST(EpochSessionWeights, SetWeightsTakesOnlyTheSameStructure) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Graph grid = make_grid3d(3, 3, 2, false);
  const Hypergraph h = graph_to_hypergraph(grid);
  const RepartitionerConfig cfg = inc_cfg(2, IncrementalMode::kOn);
  EpochSession session;
  session.bootstrap(Hypergraph(h), round_robin(h, 2));
  EpochDelta delta;
  delta.known = true;
  delta.changed = {VertexId{0}};
  const auto builds = [&] {
    return counter_rise(reg, "incremental.cache_builds",
                        [&] { session.try_epoch(delta, cfg); });
  };
  EXPECT_EQ(builds(), 1u);

  // Same edges and edge weights, new vertex weights and sizes; then graphs
  // that differ from the grid in one respect each.
  GraphBuilder heavier(grid.num_vertices());
  GraphBuilder rewired(grid.num_vertices());  // same edge count, new edges
  GraphBuilder recosted(grid.num_vertices());  // one edge weight differs
  for (Index v = 0; v < grid.num_vertices(); ++v) {
    for (const Index u : grid.neighbors(v)) {
      if (u < v) continue;
      heavier.add_edge(v, u, 1);
      rewired.add_edge(v, u == 1 ? 2 : u, 1);
      recosted.add_edge(v, u, v == 0 && u == 1 ? 2 : 1);
    }
    heavier.set_vertex_weight(v, 1 + v % 3);
    heavier.set_vertex_size(v, 2);
  }
  const Graph g = heavier.finalize();
  ASSERT_TRUE(session.set_weights(g));
  for (const VertexId v : session.hypergraph().vertices()) {
    EXPECT_EQ(session.hypergraph().vertex_weight(v), g.vertex_weight(v.v));
    EXPECT_EQ(session.hypergraph().vertex_size(v), 2);
  }
  EXPECT_EQ(builds(), 0u);

  const Graph other = rewired.finalize();
  ASSERT_EQ(other.num_edges(), grid.num_edges());
  EXPECT_FALSE(session.set_weights(other));
  EXPECT_FALSE(session.set_weights(recosted.finalize()));
  EXPECT_FALSE(session.set_weights(make_grid3d(18, 1, 1, false)));
  EXPECT_FALSE(session.set_weights(make_grid3d(3, 3, 1, false)));
  // A refused graph changes nothing.
  for (const VertexId v : session.hypergraph().vertices())
    EXPECT_EQ(session.hypergraph().vertex_weight(v), g.vertex_weight(v.v));
  EXPECT_EQ(builds(), 0u);
}

TEST(TieredRepartition, AcceptedFastPathIsRecordedAsIncrementalTier) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_hypergraph(120, 240, 4, 3, 23);
  const Partition old_p = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kOn);
  cfg.alpha = 10;

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), old_p);
  const GuardedRepartitionResult r = inc.repartition(
      RepartAlgorithm::kHypergraphRepart, EpochDelta{}, cfg);
  EXPECT_EQ(r.tier, RepartTier::kIncremental);
  EXPECT_FALSE(r.escalated);
  EXPECT_EQ(r.tier_reason, "");
  // The answer moved into the session; the costs describe it.
  EXPECT_TRUE(r.result.partition.assignment.empty());
  EXPECT_EQ(r.result.cost.comm_volume, connectivity_cut(h, inc.partition()));
  EXPECT_EQ(r.result.cost.migration_volume,
            migration_volume(h.vertex_sizes(), old_p, inc.partition()));
  EXPECT_EQ(reg.counter_value("epoch.tier_incremental"), 1u);
  EXPECT_EQ(reg.counter_value("epoch.tier_full"), 0u);
  EXPECT_EQ(reg.counter_value("epoch.escalations"), 0u);
  EXPECT_GE(reg.counter_value("incremental.accepted"), 1u);
}

TEST(TieredRepartition, RejectedFastPathEscalatesToFullTier) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_unit_hypergraph(120, 240, 29);
  const Partition old_p = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kOn);
  cfg.alpha = 10;
  cfg.partition.incremental_max_drift = -2.0;  // force drift rejection
  // This test is about escalation bookkeeping; the full tier it falls
  // through to does not always meet the validator's balance bound on
  // this instance (a partitioner quality matter, not a tiering one).
  cfg.partition.check_level = check::CheckLevel::kOff;

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), old_p);
  const GuardedRepartitionResult r = inc.repartition(
      RepartAlgorithm::kHypergraphRepart, EpochDelta{}, cfg);
  EXPECT_EQ(r.tier, RepartTier::kFull);
  EXPECT_TRUE(r.escalated);
  EXPECT_EQ(r.tier_reason, "drift");
  EXPECT_EQ(reg.counter_value("epoch.tier_full"), 1u);
  EXPECT_EQ(reg.counter_value("epoch.escalations"), 1u);
  EXPECT_EQ(reg.counter_value("epoch.tier_incremental"), 0u);
}

TEST(TieredRepartition, AutoRoutingRejectionIsNotAnEscalation) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const Hypergraph h = random_unit_hypergraph(100, 200, 31);
  const Partition old_p = round_robin(h, 4);
  RepartitionerConfig cfg = inc_cfg(4, IncrementalMode::kAuto);
  cfg.partition.epsilon = 0.1;  // the full tier must meet this bound too
  cfg.alpha = 10;

  EpochSession inc;
  inc.bootstrap(Hypergraph(h), old_p);
  // Unknown delta: auto mode routes straight to the full tier, no attempt.
  const GuardedRepartitionResult r = inc.repartition(
      RepartAlgorithm::kHypergraphRepart, EpochDelta{}, cfg);
  EXPECT_EQ(r.tier, RepartTier::kFull);
  EXPECT_FALSE(r.escalated);
  EXPECT_EQ(r.tier_reason, "delta_frac");
  EXPECT_EQ(reg.counter_value("epoch.escalations"), 0u);
  EXPECT_EQ(reg.counter_value("incremental.attempts"), 0u);
  // The full tier refreshed the drift baseline.
  EXPECT_EQ(inc.baseline_cut(), r.result.cost.comm_volume);
}

TEST(TieredRepartition, EpochLoopRunsIncrementalTiersUnderParanoidChecks) {
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  WeightPerturbOptions opts;
  opts.min_factor = 1.1;  // gentle drift: the fast path can absorb it
  opts.max_factor = 1.5;
  WeightPerturbScenario scenario(make_grid3d(6, 6, 6, false), opts, 19);

  RepartitionerConfig cfg;
  cfg.alpha = 100;
  cfg.partition.num_parts = 4;
  cfg.partition.epsilon = 0.5;
  cfg.partition.seed = 7;
  cfg.partition.incremental = IncrementalMode::kAuto;
  cfg.partition.incremental_max_delta_frac = 1.0;
  cfg.partition.incremental_max_drift = 10.0;
  // Paranoid checks make every incremental epoch cross-check its cut
  // against from-scratch recomputation (divergence would abort).
  cfg.partition.check_level = check::CheckLevel::kParanoid;

  const EpochRunSummary s =
      run_epochs(scenario, RepartAlgorithm::kHypergraphRepart, cfg, 4);
  ASSERT_EQ(s.epochs.size(), 4u);
  EXPECT_EQ(s.epochs[0].tier, RepartTier::kStatic);
  std::uint64_t incremental_epochs = 0;
  for (std::size_t i = 1; i < s.epochs.size(); ++i) {
    EXPECT_NE(s.epochs[i].tier, RepartTier::kStatic);
    if (s.epochs[i].tier == RepartTier::kIncremental) ++incremental_epochs;
  }
  EXPECT_GE(incremental_epochs, 1u);
  EXPECT_EQ(reg.counter_value("epoch.tier_static"), 1u);
  EXPECT_EQ(reg.counter_value("epoch.tier_incremental"), incremental_epochs);
  EXPECT_EQ(reg.counter_value("epoch.tier_full"),
            3u - incremental_epochs);
  // Weight epochs keep the structure: one cache serves every attempt.
  EXPECT_EQ(reg.counter_value("incremental.attempts"), 3u);
  EXPECT_EQ(reg.counter_value("incremental.cache_builds"), 1u);
}

}  // namespace
}  // namespace hgr
