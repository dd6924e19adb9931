// Microbenchmark of the O(delta) incremental epoch fast path against the
// full repartitioning V-cycle it bypasses (docs/INCREMENTAL.md).
//
// Setup per trial: partition a synthetic hypergraph, perturb the weights
// of a small fraction of its vertices (default 1%), then answer the
// resulting epoch twice — once through hypergraph_repartition (the full
// tier) and once through EpochSession::try_epoch seeded with
// the exact changed-vertex delta. Both answers are produced under the
// same balance bound; the incremental run must be accepted (no drift or
// imbalance escalation) for its timing to count, and the
// incremental_accepted metric records how often that held.
//
// --json=FILE emits hgr-bench-v1 with metrics full_seconds /
// incremental_seconds / incremental_speedup (TrialStats), which
// tools/bench_report.py tracks in the perf-smoke pipeline. Other flags:
// --n= --nets= --trials= --delta-frac= --k= --seed=.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/epoch_session.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/builder.hpp"
#include "partition/partitioner.hpp"

namespace {

using namespace hgr;

struct Options {
  std::string json_path;
  Index n = 30000;
  Index nets = 60000;
  int trials = 3;
  double delta_frac = 0.01;
  Index k = 8;
  std::uint64_t seed = 1;
};

/// Random nets (2..6 pins, cost 1..3) over n vertices with the given
/// weights: the structure every trial's "before" and "after" epochs share.
Hypergraph build_instance(const Options& opt,
                          const std::vector<Weight>& weights,
                          std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b(opt.n);
  for (Index i = 0; i < opt.nets; ++i) {
    const Index pins = static_cast<Index>(2 + rng.below(5));
    std::vector<Index> net;
    for (Index j = 0; j < pins; ++j)
      net.push_back(static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(opt.n))));
    b.add_net(net, 1 + static_cast<Weight>(rng.below(3)));
  }
  for (Index v = 0; v < opt.n; ++v)
    b.set_vertex_weight(v, weights[static_cast<std::size_t>(v)]);
  return b.finalize();
}

int run(const Options& opt) {
  std::vector<double> full_s, inc_s, speedup, moves;
  int accepted = 0;

  for (int trial = 0; trial < opt.trials; ++trial) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(trial);
    Rng rng(seed * 7919 + 13);

    std::vector<Weight> weights(static_cast<std::size_t>(opt.n));
    for (Weight& w : weights) w = 1 + static_cast<Weight>(rng.below(4));
    const Hypergraph before = build_instance(opt, weights, seed);

    RepartitionerConfig cfg;
    cfg.partition.num_parts = opt.k;
    cfg.partition.epsilon = 0.10;
    cfg.partition.seed = seed;
    cfg.partition.incremental = IncrementalMode::kAuto;
    cfg.alpha = 100;
    const Partition old_p = partition_hypergraph(before, cfg.partition);

    // The epoch's perturbation: delta_frac of the vertices change weight.
    EpochDelta delta;
    delta.known = true;
    const auto changed =
        static_cast<Index>(static_cast<double>(opt.n) * opt.delta_frac);
    for (Index i = 0; i < changed; ++i) {
      const auto v = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(opt.n)));
      weights[static_cast<std::size_t>(v)] =
          1 + static_cast<Weight>(rng.below(8));
      delta.changed.push_back(VertexId{v});
    }
    // Same nets, so old_p's cut on `after` is the drift baseline.
    EpochSession inc;
    inc.bootstrap(build_instance(opt, weights, seed), old_p);
    const Hypergraph& after = inc.hypergraph();

    WallTimer inc_timer;
    const IncrementalOutcome fast = inc.try_epoch(delta, cfg);
    const double inc_seconds = inc_timer.seconds();

    WallTimer full_timer;
    const RepartitionResult full = hypergraph_repartition(after, old_p, cfg);
    const double full_seconds = full_timer.seconds();

    full_s.push_back(full_seconds);
    inc_s.push_back(inc_seconds);
    speedup.push_back(full_seconds / std::max(1e-9, inc_seconds));
    moves.push_back(static_cast<double>(fast.moves));
    if (fast.accepted) ++accepted;
    std::fprintf(stderr,
                 "trial %d: full=%.3fs incremental=%.4fs (%.1fx) moves=%lld "
                 "accepted=%d reason=%s full_cut=%lld inc_cut=%lld\n",
                 trial, full_seconds, inc_seconds,
                 full_seconds / std::max(1e-9, inc_seconds),
                 static_cast<long long>(fast.moves), fast.accepted ? 1 : 0,
                 fast.reason.empty() ? "-" : fast.reason.c_str(),
                 static_cast<long long>(full.cost.comm_volume),
                 static_cast<long long>(fast.cut));
  }

  const bench::TrialStats full_stats = bench::TrialStats::of(full_s);
  const bench::TrialStats inc_stats = bench::TrialStats::of(inc_s);
  const bench::TrialStats speed_stats = bench::TrialStats::of(speedup);
  const bench::TrialStats moves_stats = bench::TrialStats::of(moves);
  std::fprintf(stderr,
               "mean: full=%.3fs incremental=%.4fs speedup=%.1fx "
               "accepted=%d/%d\n",
               full_stats.mean, inc_stats.mean, speed_stats.mean, accepted,
               opt.trials);

  if (opt.json_path.empty()) return 0;
  bench::BenchJson doc("micro_incremental");
  doc.add_string("dataset", "random-1pct-delta");
  char config[200];
  std::snprintf(config, sizeof(config),
                "{\"n\":%lld,\"nets\":%lld,\"k\":%d,\"trials\":%d,"
                "\"delta_frac\":%.4f,\"seed\":%llu}",
                static_cast<long long>(opt.n),
                static_cast<long long>(opt.nets), opt.k, opt.trials,
                opt.delta_frac,
                static_cast<unsigned long long>(opt.seed));
  doc.add_raw("config", config);
  std::string metrics = "{";
  metrics += "\"full_seconds\":" + full_stats.to_json();
  metrics += ",\"incremental_seconds\":" + inc_stats.to_json();
  metrics += ",\"incremental_speedup\":" + speed_stats.to_json();
  metrics += ",\"incremental_moves\":" + moves_stats.to_json();
  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\"incremental_accepted\":%d", accepted);
  metrics += tail;
  metrics += "}";
  doc.add_raw("metrics", metrics);
  if (!doc.write(opt.json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", opt.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote bench json to %s\n", opt.json_path.c_str());
  return accepted == opt.trials ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--json") {
      opt.json_path = value;
    } else if (key == "--n") {
      opt.n = std::stoi(value);
    } else if (key == "--nets") {
      opt.nets = std::stoi(value);
    } else if (key == "--trials") {
      opt.trials = std::stoi(value);
    } else if (key == "--delta-frac") {
      opt.delta_frac = std::stod(value);
    } else if (key == "--k") {
      opt.k = std::stoi(value);
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  return run(opt);
}
