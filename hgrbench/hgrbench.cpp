// hgrbench: the hgr benchmark driver (see README.md in this directory).
//
// One binary runs three seeded workloads through the library's public entry
// points, checks every output, and prints one JSON result line:
//
//   amr-weights    run_epochs + WeightPerturbScenario on cage14-like, serial
//   churn-ranks    run_epochs + StructuralPerturbScenario on 2DLipid-like,
//                  two ranks of the in-process parallel runtime
//   serve-tenants  serve::Server with four tenants, open-loop DELTA stream
//
//   hgrbench --workload W --seed N --seconds S --trace 0|1
//            [--scale F] [--corrupt partition|cost]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, and reports the per-layer metrics: spans
// recorded here around the library calls (kept in memory, written to
// .bench_work/spans-<workload>-<seed>.jsonl at the end) plus deltas of the
// library's own obs counters, histograms and phase tree. Nothing inside the
// library is instrumented for the benchmark.
//
// Output checks run outside the timed spans. Any violation is counted in
// `failed`, turns `correct` false and makes the exit status 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/epoch_driver.hpp"
#include "hypergraph/convert.hpp"
#include "hypergraph/io.hpp"
#include "metrics/balance.hpp"
#include "metrics/cost_model.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "workload/datasets.hpp"
#include "workload/perturb.hpp"

namespace {

using namespace hgr;

constexpr Index kParts = 16;
constexpr Weight kAlpha = 100;
constexpr double kEpsilon = 0.05;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
// The datasets are fixed Table 1 analogs; --seed drives the perturbation
// and request streams. Seed-dependent graphs would move partitioner work,
// and so every timing, from seed to seed.
constexpr std::uint64_t kDatasetSeed = 1;
constexpr double kRate = 10.0;  // serve-tenants requests per second
constexpr double kWarmupS = 3.2;  // untimed serve stream: two mix blocks
constexpr double kProbeGapS = 0.02;  // serve: probe only this long before a send
const char* const kWorkdir = ".bench_work";  // inputs and span logs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string corrupt;  // "", "partition" or "cost": negative tests
};

// ---------------------------------------------------------------------------
// Clock, statistics, output

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile, at most the 99th, with at least ten samples
/// beyond it; the maximum when there are fewer than eleven samples.
double tail_p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return v.back();
  const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * n)) - 1;
  return v[std::min(p99, n - 11)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Machine speed reference. The benchmark's host is shared: its speed
/// drifts by a third over minutes, the same for the library and for any
/// other code. Each run therefore times a fixed reference kernel, which
/// does not call the library, at idle points between operations, and
/// scales every end-to-end timing by kProbeRefS / (median probe time).
/// Timings then read as seconds on a machine where the kernel takes
/// kProbeRefS; a slower library still reads slower, a slower machine not.
///
/// The kernel is integer work with irregular reads, like the partitioner's:
/// six label-propagation sweeps over a fixed random 16-regular digraph of
/// 8192 vertices (512 KiB of arcs).
constexpr double kProbeRefS = 1.6e-3;

class SpeedProbe {
 public:
  /// Time one run of the kernel and keep the sample.
  void sample() {
    constexpr std::uint32_t kN = 8192;
    constexpr std::uint32_t kDeg = 16;
    constexpr std::uint32_t kLabels = 16;
    if (arcs_.empty()) {
      Rng rng(0x5eed);
      arcs_.resize(std::size_t{kN} * kDeg);
      for (std::uint32_t& a : arcs_) a = static_cast<std::uint32_t>(rng.below(kN));
      labels_.resize(kN);
      for (std::uint32_t v = 0; v < kN; ++v) labels_[v] = v % kLabels;
    }
    std::vector<std::uint32_t> lab = labels_;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t count[kLabels];
    for (int sweep = 0; sweep < 6; ++sweep) {
      for (std::uint32_t v = 0; v < kN; ++v) {
        std::fill(count, count + kLabels, 0U);
        for (std::uint32_t j = 0; j < kDeg; ++j)
          count[lab[arcs_[std::size_t{v} * kDeg + j]]] += 1;
        std::uint32_t best = lab[v];
        for (std::uint32_t q = 0; q < kLabels; ++q)
          if (count[q] > count[best]) best = q;
        lab[v] = best;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    sink_ += lab[0];
    samples_.push_back(std::chrono::duration<double>(t1 - t0).count());
  }

  double median_s() const { return median(samples_); }
  std::size_t samples() const { return samples_.size(); }

  /// Multiply a timing measured in this run by this to get reference time.
  double factor() const {
    return samples_.empty() ? 1.0 : kProbeRefS / median(samples_);
  }

 private:
  std::vector<std::uint32_t> arcs_;
  std::vector<std::uint32_t> labels_;
  std::vector<double> samples_;
  std::uint32_t sink_ = 0;  // keeps the sweeps observable
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  SpeedProbe speed;

  void violation(std::string what) {
    correct = false;
    if (violations.size() < 20) violations.push_back(std::move(what));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end metrics, the same on every workload. `epoch_s` holds the
/// balancer's time per epoch (the application's wait on the epoch
/// workloads, the worker's dispatch on serve-tenants) and `latency_ms` the
/// caller's wait per operation. Timings are scaled to reference speed.
void add_end_to_end(Result& r, const std::vector<double>& setups,
                    const std::vector<double>& epoch_s, double total_cost,
                    const std::vector<double>& latency_ms, double cut_ratio) {
  const double f = r.speed.factor();
  std::fprintf(stderr,
               "speed reference: %zu probes, median %.4f ms; timings x %.4f "
               "(raw: setup %.4f s, epoch p50 %.4f s, latency p50 %.4f ms, "
               "p99 %.4f ms)\n",
               r.speed.samples(), r.speed.median_s() * 1e3, f, median(setups),
               median(epoch_s), median(latency_ms), tail_p99(latency_ms));
  r.add("setup_s", f * median(setups), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("ok_frac",
        r.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
        "fraction");
  r.add("epoch_s_p50", f * median(epoch_s), "s");
  r.add("total_cost", total_cost, "cost");
  r.add("latency_ms_p50", f * median(latency_ms), "ms");
  r.add("latency_ms_p99", f * tail_p99(latency_ms), "ms");
  r.add("cut_ratio", cut_ratio, "ratio");
}

void print_result(const Result& r) {
  for (const std::string& v : r.violations)
    std::fprintf(stderr, "violation: %s\n", v.c_str());
  for (const Metric& m : r.metrics)
    std::fprintf(stderr, "  %-36s %16s %s\n", m.name.c_str(),
                 num(m.value).c_str(), m.unit.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + r.metrics[i].name + "\": {\"value\": " +
           num(r.metrics[i].value) + ", \"unit\": \"" + r.metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory by the traced pass, written out at the end.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t key = 0;     // epoch number or request id
  std::string attrs;        // JSON object body, may be empty
};

class SpanLog {
 public:
  std::int64_t add(std::string name, double start, double end,
                   std::int64_t parent, std::int64_t key,
                   std::string attrs = {}) {
    const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
    spans_.push_back(
        {std::move(name), start, end, id, parent, key, std::move(attrs)});
    return id;
  }

  /// Self time per span name: each span's duration minus the part its
  /// children cover, summed over spans of that name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const Span& s : spans_)
      if (s.parent > 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (const Span& s : spans_)
      out[s.name] +=
          (s.end - s.start) - child[static_cast<std::size_t>(s.id)];
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start\":" << num(s.start)
          << ",\"end\":" << num(s.end) << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"key\":" << s.key;
      if (!s.attrs.empty()) out << ",\"attrs\":{" << s.attrs << "}";
      out << "}\n";
    }
    for (const auto& [name, self] : self_seconds())
      out << "{\"self_seconds\":\"" << name << "\",\"value\":" << num(self)
          << "}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Write the traced pass's spans to .bench_work/spans-<workload>-<seed>.jsonl.
void write_spans(const SpanLog& spans, const Options& opt, Result& r) {
  std::filesystem::create_directories(kWorkdir);
  const std::string path = std::string(kWorkdir) + "/spans-" + opt.workload +
                           "-" + std::to_string(opt.seed) + ".jsonl";
  if (!spans.write(path)) r.violation("could not write " + path);
}

// ---------------------------------------------------------------------------
// Registry snapshots and their deltas

struct RegSnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::HistogramSnapshot> hists;
  obs::PhaseSnapshot tree;
};

RegSnap snap_registry() {
  obs::Registry& reg = obs::global_registry();
  return {reg.counters(), reg.histograms(), reg.phase_tree()};
}

double cdelta(const RegSnap& a, const RegSnap& b, const std::string& name) {
  const auto get = [&name](const RegSnap& s) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return static_cast<double>(get(b) - get(a));
}

obs::HistogramSnapshot hdelta(const RegSnap& a, const RegSnap& b,
                              const std::string& name) {
  obs::HistogramSnapshot d;
  const auto ib = b.hists.find(name);
  if (ib == b.hists.end()) return d;
  const auto ia = a.hists.find(name);
  d = ib->second;
  if (ia != a.hists.end()) {
    d.count -= ia->second.count;
    d.sum -= ia->second.sum;
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
      d.buckets[i] -= ia->second.buckets[i];
  }
  // Extremes do not subtract; bound them by the occupied buckets instead.
  int lo = -1;
  int hi = -1;
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    if (d.buckets[static_cast<std::size_t>(i)] == 0) continue;
    if (lo < 0) lo = i;
    hi = i;
  }
  if (lo >= 0) {
    d.min = std::max(d.min, obs::histogram_bucket_low(lo));
    d.max = std::min(d.max, obs::histogram_bucket_high(hi));
  } else {
    d = obs::HistogramSnapshot{};
  }
  return d;
}

double phase_sum(const obs::PhaseSnapshot& node, const std::string& name) {
  double s = node.name == name ? node.seconds : 0.0;
  for (const obs::PhaseSnapshot& c : node.children) s += phase_sum(c, name);
  return s;
}

double phase_at(const obs::PhaseSnapshot& root, std::string_view a,
                std::string_view b) {
  const obs::PhaseSnapshot* n = obs::find_phase(root, {a, b});
  return n == nullptr ? 0.0 : n->seconds;
}

const char* const kCommKinds[] = {"alltoallv", "allgather", "allreduce",
                                  "bcast", "barrier"};

/// The per-layer metrics every workload shares, from registry deltas over
/// one traced pass of `ops` operations (epochs or requests). Counts are
/// totals over the pass; seconds are per operation.
void add_registry_layers(Result& r, const RegSnap& a, const RegSnap& b,
                         double ops) {
  const auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
  const auto c = [&](const char* name) { return cdelta(a, b, name); };
  const auto ms_p50 = [&](const char* name) {
    return static_cast<double>(hdelta(a, b, name).p50()) / 1e6;
  };
  r.add("repartitioner.full_ms_p50", ms_p50("epoch.full_ns"), "ms");
  r.add("repartitioner.incremental_ms_p50", ms_p50("epoch.incremental_ns"),
        "ms");
  r.add("repartitioner.tier_full", c("epoch.tier_full"), "count");
  r.add("repartitioner.tier_incremental", c("epoch.tier_incremental"),
        "count");
  r.add("repartitioner.escalations", c("epoch.escalations"), "count");
  r.add("repartitioner.degraded", c("epoch.degraded"), "count");
  r.add("repartitioner.retries", c("epoch.retries"), "count");

  const double attempts = c("incremental.attempts");
  const double accepted = c("incremental.accepted");
  r.add("incremental.attempts", attempts, "count");
  r.add("incremental.accepted", accepted, "count");
  r.add("incremental.accept_ratio", attempts > 0 ? accepted / attempts : 0.0,
        "ratio");
  r.add("incremental.moves", c("incremental.moves"), "count");

  const double fine = c("coarsen.fine_vertices");
  r.add("partition.coarsen_s",
        per_op(phase_sum(b.tree, "coarsen") - phase_sum(a.tree, "coarsen")),
        "s");
  r.add("partition.initial_s",
        per_op(phase_sum(b.tree, "initial") - phase_sum(a.tree, "initial")),
        "s");
  r.add("partition.refine_s",
        per_op(phase_sum(b.tree, "refine") - phase_sum(a.tree, "refine")),
        "s");
  r.add("partition.levels", c("coarsen.levels"), "count");
  r.add("partition.contraction_ratio",
        fine > 0 ? c("coarsen.coarse_vertices") / fine : 0.0, "ratio");
  r.add("partition.match_frac",
        fine > 0 ? c("coarsen.matched_vertices") / fine : 0.0, "ratio");
  r.add("partition.ipm_rounds", c("coarsen.ipm_rounds"), "count");
  r.add("partition.ipm_proposals", c("coarsen.ipm_proposals"), "count");
  r.add("partition.fm_moves",
        static_cast<double>(hdelta(a, b, "fm.move_gain").count), "count");
  r.add("partition.kway_moves", c("kway.moves"), "count");
  r.add("gain_cache.builds", c("gain_cache.builds"), "count");
  r.add("gain_cache.moves", c("gain_cache.moves"), "count");

  const auto par = [&](const char* phase) {
    return per_op(phase_at(b.tree, "par_partition", phase) -
                  phase_at(a.tree, "par_partition", phase));
  };
  r.add("parallel.coarsen_cpu_s", par("coarsen"), "s");
  r.add("parallel.refine_cpu_s", par("refine"), "s");
  r.add("parallel.levels", c("par_partition.levels"), "count");
  r.add("parallel.refine_gain_evals", c("refine.gain_evals"), "count");
  r.add("parallel.refine_applied", c("refine.applied_moves"), "count");
  r.add("parallel.refine_rejected_gain", c("refine.rejected_gain"), "count");
  r.add("parallel.refine_rejected_balance", c("refine.rejected_balance"),
        "count");

  obs::HistogramSnapshot calls;
  for (const char* kind : kCommKinds) {
    const std::string base = std::string("comm.") + kind;
    r.add(base + ".count", per_op(c((base + ".count").c_str())), "count/op");
    r.add(base + ".bytes", per_op(c((base + ".bytes").c_str())), "B/op");
    calls.merge(hdelta(a, b, base + ".call_ns"));
  }
  r.add("comm.call_us_p99", static_cast<double>(calls.p99()) / 1e3, "us");
}

/// The serve layer and the open-loop generator; all zero on the epoch
/// workloads, which bypass them.
struct ServeLayers {
  double batches = 0.0;
  double coalesce_ratio = 0.0;
  double shed = 0.0;
  double errors = 0.0;
  double degraded = 0.0;
  double queue_depth_max = 0.0;
  double worker_busy_frac = 0.0;
  double gen_late_ms_max = 0.0;
};

void add_serve_layers(Result& r, const ServeLayers& s) {
  r.add("serve.batches", s.batches, "count");
  r.add("serve.coalesce_ratio", s.coalesce_ratio, "ratio");
  r.add("serve.shed", s.shed, "count");
  r.add("serve.errors", s.errors, "count");
  r.add("serve.degraded", s.degraded, "count");
  r.add("serve.queue_depth_max", s.queue_depth_max, "count");
  r.add("serve.worker_busy_frac", s.worker_busy_frac, "fraction");
  r.add("bench.gen_late_ms_max", s.gen_late_ms_max, "ms");
}

// ---------------------------------------------------------------------------
// Output checks shared by the epoch workloads

/// Every vertex in [0,k) and every part within the ceil-aware bound.
std::string check_partition(const Graph& g, const Partition& p) {
  if (p.k != kParts) return "k=" + std::to_string(p.k);
  if (p.num_vertices() != g.num_vertices())
    return "partition covers " + std::to_string(p.num_vertices()) + " of " +
           std::to_string(g.num_vertices()) + " vertices";
  for (const VertexId v : p.vertices())
    if (p[v].v < 0 || p[v].v >= p.k)
      return "vertex " + std::to_string(v.v) + " in part " +
             std::to_string(p[v].v);
  const Weight bound = max_part_weight(g.total_vertex_weight(), kParts, kEpsilon);
  const IdVector<PartId, Weight> w = part_weights(g.vertex_weights(), p);
  for (const PartId q : p.parts())
    if (w[q] > bound)
      return "part " + std::to_string(q.v) + " weighs " +
             std::to_string(w[q]) + " over bound " + std::to_string(bound);
  return {};
}

// ---------------------------------------------------------------------------
// Epoch workloads: run_epochs through a timing adapter

struct EpochSpec {
  std::string dataset;
  bool structural = false;  // StructuralPerturbScenario, else weights
  int num_ranks = 0;
  double nominal_epoch_s = 1.0;  // sizes the epoch count to --seconds
  double scale = 1.0;            // dataset scale, times --scale
};

/// One epoch as the application sees it.
struct EpochObs {
  double t_call = 0.0;       // next_epoch() called
  double t_inner_end = 0.0;  // the scenario's next_epoch() returned
  double t_ret = 0.0;        // the adapter returned: the balancer starts
  double t_record = 0.0;     // record_partition(): the balancer is done
  bool first = false;
  RepartitionCost cost;      // recomputed from scratch
  std::string partition_error;
  std::map<std::string, std::uint64_t> counter_delta;  // traced pass only
};

/// Wraps a scenario, timestamps the protocol calls and checks each
/// recorded partition. Checking happens after the timestamp that ends the
/// application's wait and before control returns to the driver. Each
/// next_epoch() first takes a speed probe, outside every timed span.
class TimedScenario final : public EpochScenario {
 public:
  TimedScenario(EpochScenario& inner, SpeedProbe& speed, bool traced,
                bool corrupt_partition)
      : inner_(inner),
        speed_(speed),
        traced_(traced),
        corrupt_partition_(corrupt_partition) {}

  EpochProblem next_epoch() override {
    speed_.sample();
    EpochObs o;
    o.t_call = now_s();
    EpochProblem p = inner_.next_epoch();
    o.t_inner_end = now_s();
    o.first = p.first;
    graph_ = p.graph;
    old_ = p.old_partition;
    if (traced_) before_ = obs::global_registry().counters();
    epochs.push_back(std::move(o));
    epochs.back().t_ret = now_s();
    return p;
  }

  void record_partition(const Partition& p) override {
    EpochObs& o = epochs.back();
    o.t_record = now_s();
    if (traced_) {
      for (const auto& [name, v] : obs::global_registry().counters()) {
        const auto it = before_.find(name);
        const std::uint64_t d = v - (it == before_.end() ? 0 : it->second);
        if (d != 0) o.counter_delta[name] = d;
      }
      if (o.first) after_bootstrap = snap_registry();
    }
    Partition checked = p;
    if (corrupt_partition_ && epochs.size() == 2)
      checked[VertexId{0}] = PartId{checked.k};
    o.partition_error = check_partition(graph_, checked);
    const Hypergraph h = graph_to_hypergraph(graph_);
    if (o.first) {
      o.cost.alpha = kAlpha;
      o.cost.comm_volume = connectivity_cut(h, p);
    } else if (old_.num_vertices() == p.num_vertices()) {
      o.cost = evaluate_repartition(h, old_, p, kAlpha);
    }
    inner_.record_partition(p);
  }

  std::vector<EpochObs> epochs;
  RegSnap after_bootstrap;  // traced: the registry once the bootstrap ends

 private:
  EpochScenario& inner_;
  SpeedProbe& speed_;
  bool traced_;
  bool corrupt_partition_;
  Graph graph_;
  Partition old_;
  std::map<std::string, std::uint64_t> before_;
};

std::unique_ptr<EpochScenario> make_scenario(const EpochSpec& spec, Graph g,
                                             std::uint64_t seed) {
  if (spec.structural)
    return std::make_unique<StructuralPerturbScenario>(
        std::move(g), StructuralPerturbOptions{}, seed);
  return std::make_unique<WeightPerturbScenario>(std::move(g),
                                                 WeightPerturbOptions{}, seed);
}

RepartitionerConfig epoch_config(const EpochSpec& spec) {
  RepartitionerConfig cfg;
  cfg.partition.num_parts = kParts;
  cfg.partition.epsilon = kEpsilon;
  cfg.alpha = kAlpha;
  cfg.num_ranks = spec.num_ranks;
  return cfg;
}

/// One pass: generate the input, run the bootstrap plus `repart_epochs`
/// repartition epochs. When traced, `before` and `after` bracket the
/// repartition epochs.
struct EpochPass {
  double gen_s = 0.0;
  std::vector<EpochObs> epochs;
  EpochRunSummary summary;
  RegSnap before;
  RegSnap after;

  double setup_s() const {
    return epochs.empty() ? 0.0
                          : gen_s + epochs[0].t_record - epochs[0].t_call;
  }
};

EpochPass run_epoch_pass(const EpochSpec& spec, const Options& opt,
                         Index repart_epochs, bool traced, SpeedProbe& speed) {
  EpochPass pass;
  const double t0 = now_s();
  Graph g = make_dataset(spec.dataset, spec.scale * opt.scale, kDatasetSeed);
  std::unique_ptr<EpochScenario> inner =
      make_scenario(spec, std::move(g), derive_seed(opt.seed, 7));
  pass.gen_s = now_s() - t0;
  TimedScenario timed(*inner, speed, traced, opt.corrupt == "partition");
  pass.summary = run_epochs(timed, RepartAlgorithm::kHypergraphRepart,
                            epoch_config(spec), 1 + repart_epochs);
  if (traced) {
    pass.before = std::move(timed.after_bootstrap);
    pass.after = snap_registry();
  }
  pass.epochs = std::move(timed.epochs);
  return pass;
}

/// Cost identity, partition validity, degradation: one failure per epoch.
void check_epochs(EpochPass& pass, const Options& opt, Result& r) {
  std::vector<EpochRecord>& recs = pass.summary.epochs;
  if (opt.corrupt == "cost" && recs.size() > 1) recs[1].cost.comm_volume += 1;
  if (recs.size() != pass.epochs.size()) {
    r.violation("run_epochs returned " + std::to_string(recs.size()) +
                " records for " + std::to_string(pass.epochs.size()) +
                " epochs");
    r.failed += 1;
  }
  r.attempted += pass.epochs.size();
  for (std::size_t i = 0; i < std::min(recs.size(), pass.epochs.size()); ++i) {
    const EpochRecord& rec = recs[i];
    const EpochObs& o = pass.epochs[i];
    std::string why;
    if (rec.is_static != o.first) why = "static flag mismatch";
    if (!o.partition_error.empty()) why = o.partition_error;
    if (rec.cost.comm_volume != o.cost.comm_volume ||
        rec.cost.migration_volume != o.cost.migration_volume ||
        rec.cost.alpha != o.cost.alpha)
      why = "cost identity: record comm=" +
            std::to_string(rec.cost.comm_volume) +
            " mig=" + std::to_string(rec.cost.migration_volume) +
            ", recomputed comm=" + std::to_string(o.cost.comm_volume) +
            " mig=" + std::to_string(o.cost.migration_volume);
    if (rec.degraded) why = "degraded epoch";
    if (!why.empty()) {
      r.failed += 1;
      r.violation("epoch " + std::to_string(i + 1) + ": " + why);
    }
  }
}

std::vector<double> epoch_waits(const EpochPass& pass) {
  std::vector<double> w;
  for (const EpochObs& o : pass.epochs)
    if (!o.first) w.push_back(o.t_record - o.t_ret);
  return w;
}

int run_epoch_workload(const EpochSpec& spec, const Options& opt, Result& r) {
  const Index repart_epochs = std::max<Index>(
      3, static_cast<Index>(std::lround(opt.seconds / spec.nominal_epoch_s)));

  if (!opt.trace) {
    // Extra set-ups first: generation plus the static bootstrap alone.
    std::vector<double> setups;
    for (int s = 1; s < kSetups; ++s)
      setups.push_back(run_epoch_pass(spec, opt, 0, false, r.speed).setup_s());
    EpochPass pass = run_epoch_pass(spec, opt, repart_epochs, false, r.speed);
    setups.push_back(pass.setup_s());
    check_epochs(pass, opt, r);

    const std::vector<double> waits = epoch_waits(pass);
    std::vector<double> waits_ms;
    for (const double w : waits) waits_ms.push_back(w * 1e3);
    double cut_ratio = 0.0;
    const double base_cut =
        pass.summary.epochs.empty()
            ? 0.0
            : static_cast<double>(pass.summary.epochs[0].cost.comm_volume);
    Index n = 0;
    for (const EpochRecord& rec : pass.summary.epochs) {
      if (rec.is_static) continue;
      cut_ratio += static_cast<double>(rec.cost.comm_volume) /
                   std::max(1.0, base_cut);
      ++n;
    }
    std::fprintf(stderr,
                 "%s: %zu repartition epochs (latency and epoch wait samples), "
                 "%d set-ups\n",
                 opt.workload.c_str(), waits.size(), kSetups);
    add_end_to_end(r, setups, waits, pass.summary.mean_normalized_total_cost(),
                   waits_ms, n == 0 ? 0.0 : cut_ratio / static_cast<double>(n));
    return 0;
  }

  // Traced: an untraced pass for the overhead reference, then the traced one.
  EpochPass plain = run_epoch_pass(spec, opt, repart_epochs, false, r.speed);
  check_epochs(plain, opt, r);
  EpochPass pass = run_epoch_pass(spec, opt, repart_epochs, true, r.speed);
  check_epochs(pass, opt, r);

  SpanLog spans;
  const double run_start = pass.epochs.empty() ? 0.0 : pass.epochs[0].t_call;
  const double run_end = pass.epochs.empty() ? 0.0 : pass.epochs.back().t_record;
  const std::int64_t root = spans.add("bench.run_epochs", run_start, run_end, 0, 0);
  std::vector<double> next_s;
  std::vector<double> overhead_s;
  std::vector<double> repart_s;
  std::vector<double> wait_fracs;
  for (std::size_t i = 0; i < pass.epochs.size(); ++i) {
    const EpochObs& o = pass.epochs[i];
    const EpochRecord* rec =
        i < pass.summary.epochs.size() ? &pass.summary.epochs[i] : nullptr;
    const auto key = static_cast<std::int64_t>(i + 1);
    const double end = i + 1 < pass.epochs.size() ? pass.epochs[i + 1].t_call
                                                  : o.t_record;
    const std::int64_t ep = spans.add("bench.epoch", o.t_call, end, root, key);
    spans.add("workload.next_epoch", o.t_call, o.t_inner_end, ep, key);
    spans.add("bench.check_prep", o.t_inner_end, o.t_ret, ep, key);
    std::string attrs;
    if (rec != nullptr) {
      attrs = "\"tier\":\"" + std::string(to_string(rec->tier)) +
              "\",\"repart_s\":" + num(rec->repart_seconds) +
              ",\"coarsen_s\":" + num(rec->coarsen_seconds) +
              ",\"initial_s\":" + num(rec->initial_seconds) +
              ",\"refine_s\":" + num(rec->refine_seconds) +
              ",\"comm\":" + std::to_string(rec->cost.comm_volume) +
              ",\"mig\":" + std::to_string(rec->cost.migration_volume) +
              ",\"wait_frac\":" + num(rec->wait_frac) + ",\"counters\":{";
      bool first = true;
      for (const auto& [name, d] : o.counter_delta) {
        if (!first) attrs += ',';
        first = false;
        attrs += "\"" + name + "\":" + std::to_string(d);
      }
      attrs += "}";
    }
    spans.add("epoch_driver.wait", o.t_ret, o.t_record, ep, key, attrs);
    spans.add("bench.check", o.t_record, end, ep, key);
    if (o.first || rec == nullptr) continue;
    next_s.push_back(o.t_inner_end - o.t_call);
    repart_s.push_back(rec->repart_seconds);
    overhead_s.push_back((o.t_record - o.t_ret) - rec->repart_seconds);
    wait_fracs.push_back(rec->wait_frac);
  }
  write_spans(spans, opt, r);

  const double ops = static_cast<double>(repart_s.size());
  const double plain_p50 = median(epoch_waits(plain));
  r.add("workload.next_epoch_s", mean(next_s), "s");
  r.add("epoch_driver.overhead_s", mean(overhead_s), "s");
  r.add("repartitioner.repart_s", mean(repart_s), "s");
  add_registry_layers(r, pass.before, pass.after, ops);
  r.add("comm.wait_frac", mean(wait_fracs), "fraction");
  add_serve_layers(r, ServeLayers{});
  r.add("bench.trace_overhead_pct",
        plain_p50 > 0 ? 100.0 * (median(epoch_waits(pass)) / plain_p50 - 1.0)
                      : 0.0,
        "%");
  return 0;
}

// ---------------------------------------------------------------------------
// serve-tenants: one Server, four tenants, an open-loop DELTA stream

struct Tenant {
  std::string name;
  Index n = 0;
  std::vector<Weight> base_weight;
  double load_cut = 0.0;
};

/// One request of the stream, due at `due` seconds after the stream start.
struct Req {
  std::size_t tenant = 0;
  std::string line;
  double due = 0.0;
  double sent = 0.0;
  double replied = 0.0;
  int replies = 0;
  std::string reply;
};

struct ServeRun {
  std::vector<Tenant> tenants;
  std::unique_ptr<serve::Server> server;
  std::mutex mu;
  std::vector<Req>* reqs = nullptr;  // the stream being replied to
  std::size_t answered = 0;          // requests of `reqs` with a reply
  std::uint64_t first_id = 0;
  std::uint64_t next_id = 1;  // ids the server has assigned so far + 1
  std::vector<std::string> load_replies;
  std::uint64_t stray_replies = 0;
};

std::string reply_field(const std::string& reply, const std::string& key) {
  const std::string tag = " " + key + "=";
  const auto at = reply.find(tag);
  if (at == std::string::npos) return {};
  const auto start = at + tag.size();
  return reply.substr(start, reply.find(' ', start) - start);
}

void on_reply(ServeRun& run, const std::string& text) {
  const double t = now_s();
  const auto sp = text.find(' ');
  const std::uint64_t id =
      sp == std::string::npos ? 0 : std::strtoull(text.c_str() + sp + 1, nullptr, 10);
  const std::lock_guard<std::mutex> lock(run.mu);
  if (run.reqs != nullptr && id >= run.first_id &&
      id < run.first_id + run.reqs->size()) {
    Req& q = (*run.reqs)[id - run.first_id];
    q.replies += 1;
    if (q.replies == 1) {
      q.replied = t;
      q.reply = text;
      run.answered += 1;
    }
  } else if (run.reqs == nullptr) {
    run.load_replies.push_back(text);
  } else {
    run.stray_replies += 1;
  }
}

const std::pair<const char*, const char*> kTenants[] = {
    {"xyce", "xyce680s-like"},
    {"auto", "auto-like"},
    {"apoa1", "apoa1-like"},
    {"cage14", "cage14-like"}};

/// Generate the tenants' inputs, start a server and LOAD every tenant.
/// Returns false (with violations recorded) if a LOAD fails.
bool serve_setup(ServeRun& run, const Options& opt, Result& r) {
  std::filesystem::create_directories(kWorkdir);
  run.tenants.clear();
  std::vector<std::string> loads;
  for (const auto& [name, dataset] : kTenants) {
    const Graph g = make_dataset(dataset, opt.scale, kDatasetSeed);
    Tenant ten;
    ten.name = name;
    ten.n = g.num_vertices();
    ten.base_weight.assign(g.vertex_weights().begin(), g.vertex_weights().end());
    const std::string path = std::string(kWorkdir) + "/" + name + ".hgr";
    write_hmetis_file(graph_to_hypergraph(g), path);
    loads.push_back("LOAD " + ten.name + " " + path +
                    " k=" + std::to_string(kParts) +
                    " alpha=" + std::to_string(kAlpha));
    run.tenants.push_back(std::move(ten));
  }
  serve::ServeConfig cfg;
  cfg.default_k = kParts;
  cfg.default_alpha = kAlpha;
  cfg.default_epsilon = kEpsilon;
  cfg.queue_capacity = 1 << 16;
  cfg.incremental = IncrementalMode::kAuto;
  run.load_replies.clear();
  run.reqs = nullptr;
  run.server = std::make_unique<serve::Server>(
      cfg, [&run](const std::string& text) { on_reply(run, text); });
  run.next_id = 1;
  for (const std::string& line : loads) run.next_id = run.server->submit(line) + 1;
  run.server->drain();
  bool ok = run.load_replies.size() == run.tenants.size();
  for (const std::string& reply : run.load_replies) {
    const std::string name = reply_field(reply, "graph");
    const std::string cut = reply_field(reply, "cut");
    ok = ok && reply.rfind("OK ", 0) == 0 && !cut.empty();
    for (Tenant& ten : run.tenants)
      if (ten.name == name) ten.load_cut = std::strtod(cut.c_str(), nullptr);
  }
  if (!ok) r.violation("LOAD failed: " + (run.load_replies.empty()
                                               ? std::string("no reply")
                                               : run.load_replies[0]));
  return ok;
}

/// Tenant traffic: each block of sixteen consecutive requests holds this
/// many for each tenant (in kTenants order), in seeded random order. The
/// tenants' latencies form four clusters (xyce < auto < apoa1 < cage14);
/// an exact mix keeps the median inside auto's cluster and the p99 inside
/// cage14's, instead of on a boundary that shifts with the draw. apoa1
/// gets little traffic because its small, dense parts drift-escalate to a
/// ~0.6 s full epoch about once per 35 requests; at 10 requests/s one such
/// epoch delays fewer than the ten requests the p99 leaves out.
constexpr std::size_t kTenantMix[] = {3, 6, 1, 6};
constexpr std::size_t kMixBlock = 16;

/// The seeded DELTA stream: each request goes to a random tenant, drawn
/// without replacement from blocks of kTenantMix, and sets ~0.2% of that
/// tenant's vertices to 1x or 2x their original weight.
std::vector<Req> make_stream(const ServeRun& run, const Options& opt,
                             std::uint64_t stream, double seconds) {
  Rng rng(derive_seed(opt.seed, 100 + stream));
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(kRate * seconds)));
  std::vector<Req> reqs(count);
  std::vector<std::size_t> block;
  for (std::size_t i = 0; i < count; ++i) {
    Req& q = reqs[i];
    if (i % kMixBlock == 0) {
      block.clear();
      for (std::size_t t = 0; t < run.tenants.size(); ++t)
        block.insert(block.end(), kTenantMix[t], t);
      for (std::size_t j = block.size() - 1; j > 0; --j)
        std::swap(block[j], block[static_cast<std::size_t>(rng.below(j + 1))]);
    }
    q.tenant = block[i % kMixBlock];
    const Tenant& ten = run.tenants[q.tenant];
    const Index changed = std::max<Index>(
        1, static_cast<Index>(std::lround(0.002 * static_cast<double>(ten.n))));
    q.line = "DELTA " + ten.name;
    for (Index j = 0; j < changed; ++j) {
      const auto v = static_cast<Index>(
          rng.below(static_cast<std::uint64_t>(ten.n)));
      const Weight w = ten.base_weight[static_cast<std::size_t>(v)] *
                       static_cast<Weight>(1 + rng.below(2));
      q.line += ' ' + std::to_string(v) + ':' + std::to_string(w);
    }
    q.due = static_cast<double>(i) / kRate;
  }
  return reqs;
}

struct StreamStats {
  std::vector<double> latency_ms;  // failed requests count as +inf
  std::vector<double> dispatch_s;  // worker service time per dispatch
  double busy_frac = 0.0;
  double late_ms_max = 0.0;
  std::size_t queue_depth_max = 0;
  double total_cost = 0.0;
  double cut_ratio = 0.0;
  double wall_s = 0.0;
};

/// Send `reqs` open-loop, wait for the replies, check them and compute the
/// stream's statistics. With `spans`, also record request and dispatch
/// spans.
StreamStats run_stream(ServeRun& run, std::vector<Req>& reqs, Result& r,
                       SpanLog* spans) {
  StreamStats st;
  {
    const std::lock_guard<std::mutex> lock(run.mu);
    run.reqs = &reqs;
    run.answered = 0;
    run.first_id = run.next_id;
  }
  const double t0 = now_s() + 0.01;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Req& q = reqs[i];
    q.due += t0;
    // A speed probe between sends, once the worker is idle and only while
    // the next send is far enough off: the process runs on one CPU.
    if (q.due - now_s() > 2 * kProbeGapS) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kProbeGapS));
      bool idle = false;
      {
        const std::lock_guard<std::mutex> lock(run.mu);
        idle = run.answered == i;
      }
      if (idle && q.due - now_s() > kProbeGapS) r.speed.sample();
    }
    const double wait = q.due - now_s();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    q.sent = now_s();
    st.late_ms_max = std::max(st.late_ms_max, (q.sent - q.due) * 1e3);
    st.queue_depth_max = std::max(st.queue_depth_max, run.server->queue_depth());
    const std::uint64_t id = run.server->submit(q.line);
    if (id != run.first_id + i)
      r.violation("request " + std::to_string(i) + " got id " +
                  std::to_string(id));
    run.next_id = id + 1;
  }
  // Wait for the backlog, bounded so a pathological run still exits; a
  // stop() answers whatever is left with BUSY.
  const double deadline = now_s() + 60.0;
  while (run.server->queue_depth() > 0 && now_s() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (run.server->queue_depth() > 0) {
    run.server->stop();
  } else {
    run.server->drain();
  }
  const double t_end = now_s();
  st.wall_s = t_end - t0;
  {
    const std::lock_guard<std::mutex> lock(run.mu);
    run.reqs = nullptr;
  }

  // Per-request checks: exactly one reply, OK and not degraded.
  r.attempted += reqs.size();
  std::vector<double> cost_sum(run.tenants.size(), 0.0);
  std::vector<double> cost_n(run.tenants.size(), 0.0);
  double ratio_sum = 0.0;
  double ratio_n = 0.0;
  std::vector<std::size_t> ok_order;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Req& q = reqs[i];
    std::string why;
    if (q.replies != 1) {
      why = std::to_string(q.replies) + " replies";
    } else if (q.reply.rfind("OK ", 0) != 0) {
      why = q.reply;
    } else if (reply_field(q.reply, "degraded") != "0") {
      why = "degraded: " + q.reply;
    }
    if (!why.empty()) {
      r.failed += 1;
      r.violation("request " + std::to_string(i) + ": " + why);
      st.latency_ms.push_back(INFINITY);
      continue;
    }
    st.latency_ms.push_back((q.replied - q.due) * 1e3);
    const double cut = std::strtod(reply_field(q.reply, "cut").c_str(), nullptr);
    const double mig = std::strtod(reply_field(q.reply, "mig").c_str(), nullptr);
    cost_sum[q.tenant] += cut + mig / static_cast<double>(kAlpha);
    cost_n[q.tenant] += 1;
    ratio_sum += cut / std::max(1.0, run.tenants[q.tenant].load_cut);
    ratio_n += 1;
    ok_order.push_back(i);
  }
  if (run.stray_replies != 0) {
    r.violation(std::to_string(run.stray_replies) + " replies to unknown ids");
    r.failed += run.stray_replies;
    run.stray_replies = 0;
  }
  double tenants_seen = 0.0;
  for (std::size_t t = 0; t < cost_sum.size(); ++t) {
    if (cost_n[t] == 0) continue;
    st.total_cost += cost_sum[t] / cost_n[t];
    tenants_seen += 1;
  }
  if (tenants_seen > 0) st.total_cost /= tenants_seen;
  st.cut_ratio = ratio_n > 0 ? ratio_sum / ratio_n : 0.0;

  // Dispatches: the worker answers a coalesced batch of c+1 requests with
  // c+1 consecutive replies. A dispatch starts when the worker is free and
  // the batch's last request has arrived; it ends at its first reply.
  std::sort(ok_order.begin(), ok_order.end(), [&](std::size_t a, std::size_t b) {
    return reqs[a].replied < reqs[b].replied;
  });
  const std::int64_t root =
      spans != nullptr ? spans->add("bench.serve_stream", t0, t_end, 0, 0) : 0;
  double prev_end = t0;
  double busy = 0.0;
  for (std::size_t at = 0; at < ok_order.size();) {
    const Req& head = reqs[ok_order[at]];
    const auto size = static_cast<std::size_t>(
        1 + std::strtoull(reply_field(head.reply, "coalesced").c_str(), nullptr, 10));
    const std::size_t stop = std::min(ok_order.size(), at + size);
    double arrived = 0.0;
    for (std::size_t j = at; j < stop; ++j)
      arrived = std::max(arrived, reqs[ok_order[j]].sent);
    const double start = std::max(prev_end, arrived);
    const double end = head.replied;
    st.dispatch_s.push_back(std::max(0.0, end - start));
    busy += std::max(0.0, end - start);
    if (spans != nullptr) {
      const auto key = static_cast<std::int64_t>(run.first_id + ok_order[at]);
      const std::int64_t d = spans->add(
          "serve.dispatch", start, end, root, key,
          "\"graph\":\"" + reply_field(head.reply, "graph") + "\",\"tier\":\"" +
              reply_field(head.reply, "tier") + "\",\"batch\":" +
              std::to_string(stop - at));
      for (std::size_t j = at; j < stop; ++j) {
        const Req& q = reqs[ok_order[j]];
        spans->add("serve.request", q.due, q.replied, d,
                   static_cast<std::int64_t>(run.first_id + ok_order[j]),
                   "\"sent\":" + num(q.sent) + ",\"cut\":" +
                       reply_field(q.reply, "cut") + ",\"mig\":" +
                       reply_field(q.reply, "mig"));
      }
    }
    prev_end = reqs[ok_order[stop - 1]].replied;
    at = stop;
  }
  st.busy_frac = st.wall_s > 0 ? busy / st.wall_s : 0.0;
  std::vector<int> full_tier(run.tenants.size(), 0);
  std::vector<std::vector<double>> tenant_ms(run.tenants.size());
  for (const std::size_t i : ok_order) {
    if (reply_field(reqs[i].reply, "tier") == "full")
      full_tier[reqs[i].tenant] += 1;
    tenant_ms[reqs[i].tenant].push_back((reqs[i].replied - reqs[i].due) * 1e3);
  }
  for (std::size_t t = 0; t < run.tenants.size(); ++t)
    std::fprintf(stderr,
                 "  %-7s %4zu requests, latency p50 %.3f ms, %d answered by "
                 "the full tier\n",
                 run.tenants[t].name.c_str(), tenant_ms[t].size(),
                 median(tenant_ms[t]), full_tier[t]);
  return st;
}

/// Send an untimed stream first, so each tenant's first DELTA (which
/// builds its gain cache) and cold caches stay out of the timed tail.
void warm_up(ServeRun& run, const Options& opt, Result& r) {
  std::vector<Req> reqs = make_stream(run, opt, 2, kWarmupS);
  run_stream(run, reqs, r, nullptr);
}

/// Bind this thread, and so every thread it starts later, to the CPU it is
/// on. The server's one worker and the generator are one core's work. Left
/// free, each request wakes the worker on another, idle CPU; on a shared
/// virtual machine that wake-up took milliseconds at busy times and set
/// the latency more than the server did.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

int run_serve_workload(const Options& opt, Result& r) {
  pin_to_current_cpu();
  ServeRun run;
  if (!opt.trace) {
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
      if (run.server) run.server->shutdown();
      r.speed.sample();
      const double t0 = now_s();
      if (!serve_setup(run, opt, r)) {
        r.failed += 1;
        return 1;
      }
      setups.push_back(now_s() - t0);
    }
    warm_up(run, opt, r);
    std::vector<Req> reqs = make_stream(run, opt, 0, opt.seconds);
    const StreamStats st = run_stream(run, reqs, r, nullptr);
    run.server->shutdown();
    std::fprintf(stderr,
                 "serve-tenants: %zu requests at %.1f/s, %zu dispatches, "
                 "generator late by at most %.3f ms, %d set-ups\n",
                 reqs.size(), kRate, st.dispatch_s.size(), st.late_ms_max,
                 kSetups);
    add_end_to_end(r, setups, st.dispatch_s, st.total_cost, st.latency_ms,
                   st.cut_ratio);
    return 0;
  }

  if (!serve_setup(run, opt, r)) {
    r.failed += 1;
    return 1;
  }
  warm_up(run, opt, r);
  std::vector<Req> plain_reqs = make_stream(run, opt, 0, opt.seconds);
  const StreamStats plain = run_stream(run, plain_reqs, r, nullptr);
  std::vector<Req> reqs = make_stream(run, opt, 1, opt.seconds);
  SpanLog spans;
  const RegSnap before = snap_registry();
  const StreamStats st = run_stream(run, reqs, r, &spans);
  const RegSnap after = snap_registry();
  run.server->shutdown();
  write_spans(spans, opt, r);

  const double ops = static_cast<double>(reqs.size());
  const double repart_ns =
      static_cast<double>(hdelta(before, after, "epoch.full_ns").sum +
                          hdelta(before, after, "epoch.incremental_ns").sum);
  const double batches = cdelta(before, after, "serve.batches");
  r.add("workload.next_epoch_s", 0.0, "s");
  r.add("epoch_driver.overhead_s", 0.0, "s");
  r.add("repartitioner.repart_s", repart_ns / 1e9 / ops, "s");
  add_registry_layers(r, before, after, ops);
  r.add("comm.wait_frac", 0.0, "fraction");
  ServeLayers layers;
  layers.batches = batches;
  layers.coalesce_ratio =
      batches > 0 ? cdelta(before, after, "serve.requests") / batches : 0.0;
  layers.shed = cdelta(before, after, "serve.shed");
  layers.errors = cdelta(before, after, "serve.errors");
  layers.degraded = cdelta(before, after, "serve.degraded");
  layers.queue_depth_max = static_cast<double>(st.queue_depth_max);
  layers.worker_busy_frac = st.busy_frac;
  layers.gen_late_ms_max = st.late_ms_max;
  add_serve_layers(r, layers);
  const double plain_p50 = median(plain.latency_ms);
  r.add("bench.trace_overhead_pct",
        plain_p50 > 0 ? 100.0 * (median(st.latency_ms) / plain_p50 - 1.0) : 0.0,
        "%");
  return 0;
}

// ---------------------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hgrbench --workload amr-weights|churn-ranks|"
               "serve-tenants --seed N --seconds S --trace 0|1 [--scale F] "
               "[--corrupt partition|cost]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--scale") opt.scale = std::stod(value);
      else if (key == "--corrupt") opt.corrupt = value;
      else return usage(("unknown flag " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.seconds <= 0 || opt.scale <= 0)
    return usage("--seconds and --scale must be positive");
  if (!opt.corrupt.empty() && opt.corrupt != "partition" && opt.corrupt != "cost")
    return usage("--corrupt takes partition or cost");

  Result r;
  int rc = 0;
  try {
    if (opt.workload == "amr-weights") {
      // Quarter scale: ~0.5 s epochs, so the median is over ~50 of them
      // and one slow stretch of the machine moves it little.
      rc = run_epoch_workload({"cage14-like", false, 0, 0.6, 0.25}, opt, r);
    } else if (opt.workload == "churn-ranks") {
      rc = run_epoch_workload({"2DLipid-like", true, 2, 0.25, 1.0}, opt, r);
    } else if (opt.workload == "serve-tenants") {
      rc = run_serve_workload(opt, r);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  print_result(r);
  return r.correct ? 0 : 1;
}
