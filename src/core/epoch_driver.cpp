#include "core/epoch_driver.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/timer.hpp"
#include "core/epoch_session.hpp"
#include "graphpart/gpartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/migration.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"

namespace hgr {

namespace {

/// Sum of `seconds` over every node named `name` in the phase tree;
/// diffed around an epoch's work to attribute phase time per epoch.
double sum_phase_seconds(const obs::PhaseSnapshot& node,
                         std::string_view name) {
  double s = node.name == name ? node.seconds : 0.0;
  for (const obs::PhaseSnapshot& child : node.children)
    s += sum_phase_seconds(child, name);
  return s;
}

struct PhaseSecondsMark {
  double coarsen = 0.0;
  double initial = 0.0;
  double refine = 0.0;
};

PhaseSecondsMark mark_phase_seconds() {
  const obs::PhaseSnapshot tree = obs::global_registry().phase_tree();
  PhaseSecondsMark m;
  m.coarsen = sum_phase_seconds(tree, "coarsen");
  m.initial = sum_phase_seconds(tree, "initial");
  m.refine = sum_phase_seconds(tree, "refine");
  return m;
}

double mean_over_repart_epochs(const std::vector<EpochRecord>& records,
                               double (*value)(const EpochRecord&)) {
  double sum = 0.0;
  Index count = 0;
  for (const EpochRecord& r : records) {
    // Filter on the record's own flag, not its position: in degraded or
    // restarted sequences the static bootstrap is not simply "epoch < 2".
    if (r.is_static) continue;
    sum += value(r);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace

double EpochRunSummary::mean_comm_volume() const {
  return mean_over_repart_epochs(epochs, [](const EpochRecord& r) {
    return static_cast<double>(r.cost.comm_volume);
  });
}

double EpochRunSummary::mean_migration_volume() const {
  return mean_over_repart_epochs(epochs, [](const EpochRecord& r) {
    return static_cast<double>(r.cost.migration_volume);
  });
}

double EpochRunSummary::mean_normalized_total_cost() const {
  return mean_over_repart_epochs(epochs, [](const EpochRecord& r) {
    return r.cost.normalized_total();
  });
}

double EpochRunSummary::mean_repart_seconds() const {
  return mean_over_repart_epochs(
      epochs, [](const EpochRecord& r) { return r.repart_seconds; });
}

EpochRunSummary run_epochs(EpochScenario& scenario,
                           RepartAlgorithm algorithm,
                           const RepartitionerConfig& cfg, Index num_epochs) {
  obs::TraceScope run_scope("epochs");
  EpochRunSummary summary;
  // The delta tracker diffs consecutive epochs; the session owns the
  // epoch hypergraph, the partition, the drift baseline and the resident
  // gain cache across them.
  EpochDeltaTracker delta_tracker;
  EpochSession session;
  static obs::CachedCounter tier_static_counter("epoch.tier_static");
  static obs::CachedCounter epoch_counter("epoch.count");
  static obs::CachedCounter comm_volume_counter("epoch.comm_volume");
  static obs::CachedCounter migration_volume_counter("epoch.migration_volume");
  static obs::CachedCounter total_cost_counter("epoch.total_cost");
  static obs::CachedCounter migrated_counter("epoch.migrated_vertices");
  for (Index e = 1; e <= num_epochs; ++e) {
    // Tag the epoch for span attribution and the live stats stream before
    // any repartition work runs.
    obs::set_current_epoch(e);
    obs::gauge("epoch.current").set(e);
    EpochProblem problem = scenario.next_epoch();
    const EpochDelta delta =
        delta_tracker.observe(problem.graph, problem.to_base);

    EpochRecord record;
    record.epoch = e;
    record.num_vertices = problem.graph.num_vertices();

    obs::TraceScope epoch_scope(problem.first ? "epoch.static"
                                              : "epoch.repartition");
    const PhaseSecondsMark before = mark_phase_seconds();
    if (problem.first) {
      // Epoch 1: static partitioning (paper Section 3). Each family uses
      // its own static partitioner, as in the paper's setup. The bootstrap
      // cut is the first drift baseline, so epoch 2 can already ride the
      // fast path.
      Hypergraph h = graph_to_hypergraph(problem.graph);
      WallTimer timer;
      const bool hypergraph_family =
          algorithm == RepartAlgorithm::kHypergraphRepart ||
          algorithm == RepartAlgorithm::kHypergraphScratch;
      Partition p = hypergraph_family
                        ? partition_hypergraph(h, cfg.partition)
                        : partition_graph(problem.graph, cfg.partition);
      record.repart_seconds = timer.seconds();
      record.cost.comm_volume = session.bootstrap(std::move(h), std::move(p));
      record.cost.alpha = cfg.alpha;
      record.tier = RepartTier::kStatic;
      tier_static_counter += 1;
    } else {
      // A weight-only epoch (the AMR scenario's) is edited in place, which
      // keeps the resident gain cache; anything else replaces the structure.
      if (session.set_weights(problem.graph)) {
        session.set_partition(problem.old_partition);
      } else {
        session.replace_structure(problem.graph, problem.old_partition,
                                  /*keep_baseline=*/true);
      }
      // Guarded by the graceful-degradation policy: a repartition attempt
      // that throws (misbehaving rank, watchdog-detected deadlock,
      // injected fault) or overruns the epoch budget is retried, then the
      // epoch degrades to the configured fallback — the run keeps going.
      // The session first offers the epoch to the O(delta) incremental
      // path (no-op when cfg.partition.incremental is kOff).
      const std::uint64_t span_before = obs::latest_critical_path().span_id;
      const GuardedRepartitionResult guarded =
          session.repartition(algorithm, delta, cfg, problem.graph);
      record.repart_seconds = guarded.result.seconds;
      record.cost = guarded.result.cost;
      record.degraded = guarded.degraded;
      record.retries = guarded.retries;
      record.tier = guarded.tier;
      record.escalated = guarded.escalated;
      record.num_migrated =
          num_migrated(problem.old_partition, session.partition());
      // Pick up the critical-path attribution published by this epoch's
      // repartition span (parallel runtime or the serial one-rank span).
      // Both guards matter: the span must be new (a degraded epoch ends
      // none, and the store is process-global) and tagged with this epoch.
      const obs::CriticalPathSummary cp = obs::latest_critical_path();
      if (cp.valid && cp.span_id != span_before &&
          cp.epoch == static_cast<std::int64_t>(e)) {
        record.critical_rank = cp.critical_rank;
        record.wait_frac = cp.wait_frac;
      }
    }
    record.is_static = problem.first;
    // Per-epoch invariant verification: the epoch hypergraph is
    // well-formed and the chosen assignment respects part range, fixed
    // vertices, and (at paranoid level) the reported cost components.
    const Hypergraph& h = session.hypergraph();
    const Partition& chosen = session.partition();
    if (check::enabled(cfg.partition.check_level)) {
      h.validate();
      check::PartitionExpectations expect;
      expect.context = problem.first ? "epoch.static" : "epoch.repartition";
      expect.reported_cut = record.cost.comm_volume;
      if (!problem.first) {
        expect.old_partition = &problem.old_partition;
        expect.reported_migration = record.cost.migration_volume;
      }
      check::validate_partition(h, chosen, cfg.partition.check_level, expect);
    }
    const PhaseSecondsMark after = mark_phase_seconds();
    record.coarsen_seconds = after.coarsen - before.coarsen;
    record.initial_seconds = after.initial - before.initial;
    record.refine_seconds = after.refine - before.refine;
    record.imbalance = imbalance(problem.graph.vertex_weights(), chosen);
    epoch_counter += 1;
    comm_volume_counter += static_cast<std::uint64_t>(record.cost.comm_volume);
    migration_volume_counter +=
        static_cast<std::uint64_t>(record.cost.migration_volume);
    total_cost_counter += static_cast<std::uint64_t>(record.cost.total());
    migrated_counter += static_cast<std::uint64_t>(record.num_migrated);
    summary.epochs.push_back(record);
    scenario.record_partition(chosen);
  }
  return summary;
}

void EpochSeries::append(std::string dataset, std::string perturb,
                         std::string algorithm, Index k, Weight alpha,
                         Index trial, const EpochRunSummary& summary) {
  for (const EpochRecord& r : summary.epochs) {
    EpochSeriesRow row;
    row.dataset = dataset;
    row.perturb = perturb;
    row.algorithm = algorithm;
    row.k = k;
    row.alpha = alpha;
    row.trial = trial;
    row.record = r;
    rows.push_back(std::move(row));
  }
}

std::string EpochSeries::csv_header() {
  return "dataset,perturb,algorithm,k,alpha,trial,epoch,cut,"
         "migration_volume,total_cost,normalized_cost,imbalance,"
         "num_vertices,num_migrated,repart_seconds,coarsen_seconds,"
         "initial_seconds,refine_seconds,is_static,degraded,retries,"
         "tier,escalated,critical_rank,wait_frac";
}

namespace {

/// snprintf `fmt` onto `out`, growing past the stack buffer when the
/// rendered row is longer (extreme alpha/weight/double magnitudes used to
/// truncate silently against a fixed buffer). The stack size covers every
/// typical row; pathological magnitudes take the heap path.
template <typename... Args>
void append_formatted(std::string& out, const char* fmt, Args... args) {
  char buf[160];
  const int needed = std::snprintf(buf, sizeof(buf), fmt, args...);
  HGR_ASSERT_MSG(needed >= 0, "csv row formatting failed");
  if (static_cast<std::size_t>(needed) < sizeof(buf)) {
    out += buf;
    return;
  }
  std::string big(static_cast<std::size_t>(needed) + 1, '\0');
  const int written = std::snprintf(big.data(), big.size(), fmt, args...);
  HGR_ASSERT(written == needed);
  big.resize(static_cast<std::size_t>(needed));
  out += big;
}

}  // namespace

std::string EpochSeries::to_csv() const {
  std::string out = csv_header();
  out += '\n';
  for (const EpochSeriesRow& row : rows) {
    const EpochRecord& r = row.record;
    out += row.dataset;
    out += ',';
    out += row.perturb;
    out += ',';
    out += row.algorithm;
    append_formatted(
        out,
        ",%lld,%lld,%lld,%lld,%lld,%lld,%lld,%.6g,%.6g,%lld,%lld,%.6g,%.6g,"
        "%.6g,%.6g,%d,%d,%lld,%s,%d,%d,%.6g",
        static_cast<long long>(row.k), static_cast<long long>(row.alpha),
        static_cast<long long>(row.trial), static_cast<long long>(r.epoch),
        static_cast<long long>(r.cost.comm_volume),
        static_cast<long long>(r.cost.migration_volume),
        static_cast<long long>(r.cost.total()), r.cost.normalized_total(),
        r.imbalance, static_cast<long long>(r.num_vertices),
        static_cast<long long>(r.num_migrated), r.repart_seconds,
        r.coarsen_seconds, r.initial_seconds, r.refine_seconds,
        r.is_static ? 1 : 0, r.degraded ? 1 : 0,
        static_cast<long long>(r.retries), to_string(r.tier),
        r.escalated ? 1 : 0, r.critical_rank, r.wait_frac);
    out += '\n';
  }
  return out;
}

bool EpochSeries::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_csv();
  return static_cast<bool>(out);
}

}  // namespace hgr
