// hgr_cli — command-line (re)partitioner, the Zoltan-binary analog.
//
// Modes:
//   partition:   hgr_cli partition <input> --k=16 [--eps=0.05] [--seed=1]
//                [--graph] [--ranks=P] [--out=parts.txt]
//   repartition: hgr_cli repartition <input> --old=parts.txt --alpha=100
//                --k=16 [--ranks=P] [...]
//   info:        hgr_cli info <input> [--graph|--mm]
//
// <input> is an hMETIS hypergraph file by default, a METIS graph file with
// --graph, or a MatrixMarket file with --mm (both converted to 2-pin
// nets). The partition file format is one part id per line, vertex order.
// Prints connectivity-1 cut, balance, and (for repartition) the
// comm/migration cost split; --report adds the per-part breakdown.
//
// --ranks=P runs the parallel (in-process message passing) partitioner on
// P ranks instead of the serial multilevel one. --trace-json=FILE dumps
// the run's phase timings and counters as JSON; --chrome-trace=FILE
// captures the per-rank event timeline in Chrome trace-event format (open
// in https://ui.perfetto.dev); --epoch-csv=FILE writes the run as a
// one-epoch EpochSeries CSV row (docs/OBSERVABILITY.md).
//
// Robustness knobs (docs/ROBUSTNESS.md): --fault-plan=SPEC installs a
// deterministic fault-injection plan on the parallel runtime;
// --epoch-retries=N and --epoch-timeout=S configure the repartition
// retry/degradation policy (repartition mode runs through it, so an
// injected deadlock or crash degrades to keeping the old partition
// instead of failing the invocation).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <memory>

#include "check/check_level.hpp"
#include "check/validate.hpp"
#include "fault/fault_plan.hpp"
#include "common/timer.hpp"
#include "core/epoch_driver.hpp"
#include "core/epoch_session.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/stats.hpp"
#include "metrics/balance.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/cut.hpp"
#include "metrics/migration.hpp"
#include "metrics/partition_io.hpp"
#include "metrics/report.hpp"
#include "obs/critical_path.hpp"
#include "obs/stats_stream.hpp"
#include "obs/trace.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"

namespace {

using namespace hgr;

struct CliOptions {
  std::string mode;
  std::string input;
  std::string old_parts_path;
  std::string out_path;
  std::string trace_json_path;
  std::string chrome_trace_path;
  std::string epoch_csv_path;
  std::string stats_stream_path;
  std::string fault_plan_spec;
  int epoch_retries = 1;        // failed repartition attempts retried
  double epoch_timeout = 0.0;   // per-attempt wall budget (0 = unlimited)
  Index k = 2;
  double eps = 0.05;
  std::uint64_t seed = 1;
  Weight alpha = 100;
  int ranks = 0;    // 0 = serial partitioner
  int threads = 1;  // shared-memory threads per rank
  check::CheckLevel check_level = check::CheckLevel::kOff;
  IncrementalMode incremental = IncrementalMode::kOff;
  bool graph_input = false;
  bool mm_input = false;
  bool report = false;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  hgr_cli partition   <input> --k=N [--eps=F] [--seed=S] "
               "[--graph|--mm] [--ranks=P] [--threads=T] [--report] "
               "[--out=FILE] "
               "[--trace-json=FILE] [--chrome-trace=FILE] "
               "[--epoch-csv=FILE] [--stats-stream=FILE] [--fault-plan=SPEC] "
               "[--validate=cheap|paranoid]\n"
               "  hgr_cli repartition <input> --old=FILE --k=N [--alpha=A] "
               "[--eps=F] [--seed=S] [--graph] [--ranks=P] [--threads=T] "
               "[--out=FILE] "
               "[--trace-json=FILE] [--chrome-trace=FILE] "
               "[--epoch-csv=FILE] [--stats-stream=FILE] [--fault-plan=SPEC] "
               "[--epoch-retries=N] "
               "[--epoch-timeout=S] [--incremental=on|off|auto] "
               "[--validate=cheap|paranoid]\n"
               "  hgr_cli info        <input> [--graph]\n"
               "fault plan SPEC: [seed=S;]<kind>@<site>[:key=val,...] "
               "(docs/ROBUSTNESS.md)\n");
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  if (argc < 3) usage();
  CliOptions opt;
  opt.mode = argv[1];
  opt.input = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--k") {
      opt.k = static_cast<Index>(std::stol(value));
    } else if (key == "--eps") {
      opt.eps = std::stod(value);
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--alpha") {
      opt.alpha = static_cast<Weight>(std::stoll(value));
    } else if (key == "--ranks") {
      opt.ranks = static_cast<int>(std::stol(value));
    } else if (key == "--threads") {
      opt.threads = static_cast<int>(std::stol(value));
      if (opt.threads < 1) usage("--threads must be >= 1");
    } else if (key == "--old") {
      opt.old_parts_path = value;
    } else if (key == "--out") {
      opt.out_path = value;
    } else if (key == "--trace-json") {
      opt.trace_json_path = value;
    } else if (key == "--chrome-trace") {
      opt.chrome_trace_path = value;
    } else if (key == "--epoch-csv") {
      opt.epoch_csv_path = value;
    } else if (key == "--stats-stream") {
      opt.stats_stream_path = value;
    } else if (key == "--fault-plan") {
      opt.fault_plan_spec = value;
    } else if (key == "--epoch-retries") {
      opt.epoch_retries = static_cast<int>(std::stol(value));
    } else if (key == "--epoch-timeout") {
      opt.epoch_timeout = std::stod(value);
    } else if (key == "--incremental") {
      if (value == "on")
        opt.incremental = IncrementalMode::kOn;
      else if (value == "off")
        opt.incremental = IncrementalMode::kOff;
      else if (value == "auto")
        opt.incremental = IncrementalMode::kAuto;
      else
        usage(("bad --incremental mode: " + value +
               " (expected on|off|auto)")
                  .c_str());
    } else if (key == "--validate") {
      if (!check::parse_check_level(value, opt.check_level))
        usage(("bad --validate level: " + value +
               " (expected off|cheap|paranoid)")
                  .c_str());
    } else if (key == "--graph") {
      opt.graph_input = true;
    } else if (key == "--mm") {
      opt.mm_input = true;
    } else if (key == "--report") {
      opt.report = true;
    } else {
      usage(("unknown flag: " + arg).c_str());
    }
  }
  return opt;
}

Hypergraph load(const CliOptions& opt) {
  if (opt.mm_input)
    return graph_to_hypergraph(read_matrix_market_file(opt.input));
  if (opt.graph_input)
    return graph_to_hypergraph(read_metis_graph_file(opt.input));
  return read_hmetis_file(opt.input);
}

void write_parts(const Partition& p, const std::string& path) {
  if (path.empty()) {
    write_partition(p, std::cout);
    return;
  }
  write_partition_file(p, path);
  std::fprintf(stderr, "wrote %d assignments to %s\n", p.num_vertices(),
               path.c_str());
}

void report_quality(const Hypergraph& h, const Partition& p,
                    bool full_report) {
  std::fprintf(stderr, "k=%d cut=%lld imbalance=%.4f cut_nets=%d\n", p.k,
               static_cast<long long>(connectivity_cut(h, p)),
               imbalance(h.vertex_weights(), p), num_cut_nets(h, p));
  if (full_report)
    std::fprintf(stderr, "%s", analyze_partition(h, p).to_string().c_str());
}

void maybe_dump_trace(const CliOptions& opt) {
  if (!opt.trace_json_path.empty()) {
    if (!obs::write_trace_json(opt.trace_json_path)) {
      std::fprintf(stderr, "error: could not write trace to %s\n",
                   opt.trace_json_path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "wrote trace to %s\n", opt.trace_json_path.c_str());
  }
  if (!opt.chrome_trace_path.empty()) {
    if (!obs::write_chrome_trace(opt.chrome_trace_path)) {
      std::fprintf(stderr, "error: could not write chrome trace to %s\n",
                   opt.chrome_trace_path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "wrote chrome trace to %s (open in ui.perfetto.dev)\n",
                 opt.chrome_trace_path.c_str());
  }
  if (!opt.stats_stream_path.empty()) {
    if (!obs::write_stats_stream(opt.stats_stream_path)) {
      std::fprintf(stderr, "error: could not write stats stream to %s\n",
                   opt.stats_stream_path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "wrote stats stream to %s\n",
                 opt.stats_stream_path.c_str());
  }
}

/// Total seconds attributed to phase nodes named `name` in the global
/// trace (the CLI runs one (re)partition, so totals == this run).
double phase_seconds(const obs::PhaseSnapshot& node, const std::string& name) {
  double s = node.name == name ? node.seconds : 0.0;
  for (const obs::PhaseSnapshot& child : node.children)
    s += phase_seconds(child, name);
  return s;
}

/// Write the CLI's single (re)partitioning decision as a one-row
/// EpochSeries CSV: epoch 1 for a static partition, epoch 2 for a
/// repartition (matching run_epochs' numbering).
void maybe_dump_epoch_csv(const CliOptions& opt, const Hypergraph& h,
                          const Partition& p, const RepartitionCost& cost,
                          Index migrated, double seconds, Index epoch,
                          bool degraded = false, Index retries = 0,
                          RepartTier tier = RepartTier::kFull,
                          bool escalated = false) {
  if (opt.epoch_csv_path.empty()) return;
  EpochRecord rec;
  rec.epoch = epoch;
  rec.is_static = epoch == 1;
  rec.degraded = degraded;
  rec.retries = retries;
  rec.tier = epoch == 1 ? RepartTier::kStatic : tier;
  rec.escalated = escalated;
  rec.cost = cost;
  rec.repart_seconds = seconds;
  rec.imbalance = imbalance(h.vertex_weights(), p);
  rec.num_vertices = h.num_vertices();
  rec.num_migrated = migrated;
  const obs::PhaseSnapshot tree = obs::global_registry().phase_tree();
  rec.coarsen_seconds = phase_seconds(tree, "coarsen");
  rec.initial_seconds = phase_seconds(tree, "initial");
  rec.refine_seconds = phase_seconds(tree, "refine");
  // Critical-path attribution of this decision's repartition span (only
  // when the span was tagged with the same epoch we are writing).
  const obs::CriticalPathSummary cp = obs::latest_critical_path();
  if (cp.valid && cp.epoch == static_cast<std::int64_t>(epoch)) {
    rec.critical_rank = cp.critical_rank;
    rec.wait_frac = cp.wait_frac;
  }
  EpochRunSummary summary;
  summary.epochs.push_back(rec);
  EpochSeries series;
  series.append(opt.input, "none",
                opt.ranks > 0 ? "par-hypergraph" : "hypergraph", opt.k,
                cost.alpha, 0, summary);
  if (!series.write_csv(opt.epoch_csv_path)) {
    std::fprintf(stderr, "error: could not write epoch csv to %s\n",
                 opt.epoch_csv_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote epoch csv to %s\n", opt.epoch_csv_path.c_str());
}

ParallelPartitionConfig parallel_config(const CliOptions& opt,
                                        const PartitionConfig& pcfg) {
  ParallelPartitionConfig cfg;
  cfg.base = pcfg;
  cfg.num_ranks = opt.ranks;
  return cfg;
}

/// Record the CLI's single (re)partitioning decision as one epoch so the
/// trace carries the same per-epoch cost counters run_epochs emits.
void record_epoch_cost(const RepartitionCost& cost, Index migrated) {
  obs::counter("epoch.count") += 1;
  obs::counter("epoch.comm_volume") +=
      static_cast<std::uint64_t>(cost.comm_volume);
  obs::counter("epoch.migration_volume") +=
      static_cast<std::uint64_t>(cost.migration_volume);
  obs::counter("epoch.total_cost") += static_cast<std::uint64_t>(cost.total());
  obs::counter("epoch.migrated_vertices") +=
      static_cast<std::uint64_t>(migrated);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);
  // Turn event capture on before any work so the timeline covers the
  // whole run (TraceScopes and comm events check the flag at emit time).
  if (!opt.chrome_trace_path.empty()) obs::set_events_enabled(true);
  if (!opt.stats_stream_path.empty()) {
    obs::set_stats_stream_enabled(true);
    obs::set_stats_stream_path(opt.stats_stream_path);
#ifdef SIGUSR1
    // Mid-run dumps: `kill -USR1 <pid>` flushes the ring at the next
    // sampled phase boundary. The handler is one atomic store.
    std::signal(SIGUSR1, [](int) { obs::request_stats_dump(); });
#endif
  }
  try {
    Hypergraph h = load(opt);
    if (opt.mode == "info") {
      const DegreeStats vd = hypergraph_vertex_degree_stats(h);
      const DegreeStats ns = hypergraph_net_size_stats(h);
      std::printf("%s\n", h.summary().c_str());
      std::printf("vertex degree: min=%d max=%d avg=%.2f\n", vd.min, vd.max,
                  vd.avg);
      std::printf("net size:      min=%d max=%d avg=%.2f\n", ns.min, ns.max,
                  ns.avg);
      return 0;
    }

    PartitionConfig pcfg;
    pcfg.num_parts = opt.k;
    pcfg.epsilon = opt.eps;
    pcfg.seed = opt.seed;
    pcfg.num_threads = static_cast<Index>(opt.threads);
    pcfg.check_level = opt.check_level;
    if (!opt.fault_plan_spec.empty()) {
      try {
        pcfg.fault_plan = std::make_shared<const fault::FaultPlan>(
            fault::FaultPlan::parse(opt.fault_plan_spec));
      } catch (const std::invalid_argument& e) {
        usage(e.what());
      }
    }
    if (check::enabled(opt.check_level))
      h.validate(opt.k);

    if (opt.mode == "partition") {
      obs::set_current_epoch(1);
      obs::gauge("epoch.current").set(1);
      Partition p(opt.k, h.num_vertices());
      WallTimer partition_timer;
      double partition_seconds = 0.0;
      if (opt.ranks > 0) {
        const ParallelPartitionResult r =
            parallel_partition_hypergraph(h, parallel_config(opt, pcfg));
        std::fprintf(stderr,
                     "parallel: ranks=%d levels=%d bytes_sent=%llu "
                     "messages=%llu time=%.3fs\n",
                     opt.ranks, r.levels,
                     static_cast<unsigned long long>(r.traffic.bytes_sent),
                     static_cast<unsigned long long>(r.traffic.messages_sent),
                     r.seconds);
        p = r.partition;
      } else {
        p = partition_hypergraph(h, pcfg);
      }
      partition_seconds = partition_timer.seconds();
      if (check::enabled(opt.check_level)) {
        check::PartitionExpectations expect;
        expect.epsilon = opt.eps;
        expect.context = "hgr_cli partition";
        check::validate_partition(h, p, opt.check_level, expect);
        std::fprintf(stderr, "validate: partition ok (%s)\n",
                     check::to_string(opt.check_level));
      }
      report_quality(h, p, opt.report);
      write_parts(p, opt.out_path);
      RepartitionCost cost;
      cost.alpha = opt.alpha;
      cost.comm_volume = connectivity_cut(h, p);
      cost.migration_volume = 0;
      maybe_dump_epoch_csv(opt, h, p, cost, 0, partition_seconds,
                           /*epoch=*/1);
      maybe_dump_trace(opt);
      return 0;
    }
    if (opt.mode == "repartition") {
      obs::set_current_epoch(2);
      obs::gauge("epoch.current").set(2);
      if (opt.old_parts_path.empty()) usage("repartition requires --old=");
      const Partition old_p =
          read_partition_file(opt.old_parts_path, h.num_vertices(), opt.k);
      // The session takes h over; the old partition's cut is its baseline.
      // The one-shot delta is unknown (whole epoch), so --incremental=auto
      // escalates while --incremental=on repairs the old partition.
      EpochSession session;
      session.bootstrap(std::move(h), old_p);
      const Hypergraph& hg = session.hypergraph();
      GuardedRepartitionResult guarded;
      {
        obs::TraceScope repart_scope("repartition");
        // Both paths run hypergraph_repartition through the
        // graceful-degradation policy; with --ranks=P it solves the model
        // on the parallel runtime (the surface --fault-plan perturbs).
        RepartitionerConfig rcfg;
        rcfg.partition = pcfg;
        rcfg.partition.incremental = opt.incremental;
        rcfg.alpha = opt.alpha;
        rcfg.num_ranks = opt.ranks;
        rcfg.max_retries = opt.epoch_retries;
        rcfg.epoch_time_budget = opt.epoch_timeout;
        guarded = session.repartition(RepartAlgorithm::kHypergraphRepart,
                                      EpochDelta{}, rcfg);
      }
      const Partition& p = session.partition();
      const RepartitionCost& cost = guarded.result.cost;
      const double seconds = guarded.result.seconds;
      if (guarded.retries > 0 || guarded.degraded)
        std::fprintf(stderr, "repartition %s after %lld failed attempt(s)%s%s\n",
                     guarded.degraded ? "degraded (kept old partition)"
                                      : "succeeded",
                     static_cast<long long>(guarded.retries +
                                            (guarded.degraded ? 1 : 0)),
                     guarded.error.empty() ? "" : ": ",
                     guarded.error.c_str());
      if (check::enabled(opt.check_level)) {
        check::PartitionExpectations expect;
        expect.context = "hgr_cli repartition";
        expect.old_partition = &old_p;
        expect.reported_cut = cost.comm_volume;
        expect.reported_migration = cost.migration_volume;
        check::validate_partition(hg, p, opt.check_level, expect);
        std::fprintf(stderr, "validate: repartition ok (%s)\n",
                     check::to_string(opt.check_level));
      }
      if (opt.incremental != IncrementalMode::kOff)
        std::fprintf(stderr, "tier=%s%s%s%s\n", to_string(guarded.tier),
                     guarded.escalated ? " escalated" : "",
                     guarded.tier_reason.empty() ? "" : " reason=",
                     guarded.tier_reason.c_str());
      record_epoch_cost(cost, num_migrated(old_p, p));
      maybe_dump_epoch_csv(opt, hg, p, cost, num_migrated(old_p, p), seconds,
                           /*epoch=*/2, guarded.degraded, guarded.retries,
                           guarded.tier, guarded.escalated);
      report_quality(hg, p, opt.report);
      std::fprintf(stderr,
                   "alpha=%lld comm=%lld migration=%lld total=%lld "
                   "moves=%zu time=%.3fs\n",
                   static_cast<long long>(opt.alpha),
                   static_cast<long long>(cost.comm_volume),
                   static_cast<long long>(cost.migration_volume),
                   static_cast<long long>(cost.total()),
                   guarded.result.plan.moves.size(), seconds);
      write_parts(p, opt.out_path);
      maybe_dump_trace(opt);
      return 0;
    }
    usage(("unknown mode: " + opt.mode).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
