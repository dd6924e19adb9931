// Shared driver for the figure-reproduction benches (Figures 2-8).
//
// Each binary runs one dataset through both perturbation modes (cost
// figures) or one/two datasets through the structural mode (run-time
// figures), matching the layout of the paper's figures. Defaults are sized
// for a single-core container; flags (--scale, --k, --alpha, --epochs,
// --trials, --seed) unlock the full sweep.
#pragma once

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace.hpp"
#include "workload/experiment.hpp"

namespace hgr::bench {

/// Dump the accumulated trace (phase tree + counters) if the user passed
/// --trace-json=FILE; the schema is shared with hgr_cli (see
/// docs/OBSERVABILITY.md), so BENCH_*.json tooling can consume either.
inline void maybe_dump_trace(const ExperimentConfig& cfg) {
  if (cfg.trace_json.empty()) return;
  if (obs::write_trace_json(cfg.trace_json))
    std::cerr << "wrote trace to " << cfg.trace_json << "\n";
  else
    std::cerr << "error: could not write trace to " << cfg.trace_json << "\n";
}

inline ExperimentConfig default_config(const std::string& dataset,
                                       int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.dataset = dataset;
  cfg.scale = 1.0;           // full analog scale (see datasets.hpp table)
  cfg.k_values = {16, 64};   // paper: 16..64 processors
  cfg.alphas = {1, 10, 100, 1000};
  cfg.num_epochs = 4;        // 1 static bootstrap + 3 repartitions
  cfg.num_trials = 1;        // paper used 20; raise with --trials=
  cfg.apply_cli(argc, argv);
  // The timeline must be recording before any work runs.
  if (!cfg.chrome_trace.empty()) obs::set_events_enabled(true);
  return cfg;
}

/// One figure cell tagged with its perturbation mode (CellResult itself is
/// perturbation-agnostic).
using TaggedCell = std::pair<std::string, CellResult>;

/// "cells" array of the hgr-bench-v1 document.
inline std::string cells_to_json(const std::vector<TaggedCell>& cells) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_array();
  for (const auto& [perturb, c] : cells) {
    w.begin_object().key("perturb").str(perturb);
    w.key("algorithm").str(to_string(c.algorithm)).key("k").i64(c.k);
    w.key("alpha").i64(c.alpha).key("comm_volume").num(c.comm_volume);
    w.key("migration_volume").num(c.migration_volume);
    w.key("normalized_total").num(c.normalized_total);
    w.key("repart_seconds").num(c.repart_seconds).end_object();
  }
  w.end_array();
  return out;
}

/// Write every artifact the flags asked for: --trace-json, --epoch-csv,
/// --chrome-trace, --json (hgr-bench-v1 with the figure cells).
inline void dump_artifacts(const ExperimentConfig& cfg,
                           const std::string& bench_name,
                           const std::vector<TaggedCell>& cells,
                           const EpochSeries& series) {
  maybe_dump_trace(cfg);
  if (!cfg.epoch_csv.empty()) {
    if (series.write_csv(cfg.epoch_csv))
      std::cerr << "wrote epoch csv to " << cfg.epoch_csv << "\n";
    else
      std::cerr << "error: could not write " << cfg.epoch_csv << "\n";
  }
  if (!cfg.chrome_trace.empty()) {
    if (obs::write_chrome_trace(cfg.chrome_trace))
      std::cerr << "wrote chrome trace to " << cfg.chrome_trace << "\n";
    else
      std::cerr << "error: could not write " << cfg.chrome_trace << "\n";
  }
  if (!cfg.bench_json.empty()) {
    BenchJson doc(bench_name);
    doc.add_string("dataset", cfg.dataset);
    std::string config;
    obs::JsonWriter(config)
        .begin_object()
        .key("scale").num(cfg.scale)
        .key("epochs").i64(cfg.num_epochs)
        .key("trials").i64(cfg.num_trials)
        .key("seed").u64(cfg.seed)
        .key("epsilon").num(cfg.epsilon)
        .end_object();
    doc.add_raw("config", config);
    doc.add_raw("cells", cells_to_json(cells));
    if (doc.write(cfg.bench_json))
      std::cerr << "wrote bench json to " << cfg.bench_json << "\n";
    else
      std::cerr << "error: could not write " << cfg.bench_json << "\n";
  }
}

/// Cost figure (like Figures 2-6): (a) perturbed structure, (b) perturbed
/// weights.
inline int run_cost_figure(const std::string& figure,
                           const std::string& dataset, int argc,
                           char** argv) {
  ExperimentConfig cfg = default_config(dataset, argc, argv);
  std::vector<TaggedCell> all_cells;
  EpochSeries series;
  for (const PerturbKind kind :
       {PerturbKind::kStructure, PerturbKind::kWeights}) {
    cfg.perturb = kind;
    std::cerr << "[" << figure << "] running " << cfg.dataset << " "
              << to_string(kind) << " (scale=" << cfg.scale << ")\n";
    const auto cells = run_experiment(cfg, &std::cerr, &series);
    print_cost_figure(figure, cfg, cells, std::cout);
    for (const CellResult& c : cells)
      all_cells.emplace_back(to_string(kind), c);
  }
  dump_artifacts(cfg, figure, all_cells, series);
  return 0;
}

/// Run-time figure (like Figures 7-8): perturbed structure only, reporting
/// repartitioning wall time.
inline int run_runtime_figure(const std::string& figure,
                              const std::string& dataset, int argc,
                              char** argv) {
  ExperimentConfig cfg = default_config(dataset, argc, argv);
  cfg.perturb = PerturbKind::kStructure;
  std::cerr << "[" << figure << "] running " << cfg.dataset
            << " (scale=" << cfg.scale << ")\n";
  EpochSeries series;
  const auto cells = run_experiment(cfg, &std::cerr, &series);
  print_runtime_figure(figure, cfg, cells, std::cout);
  std::vector<TaggedCell> tagged;
  for (const CellResult& c : cells)
    tagged.emplace_back(to_string(cfg.perturb), c);
  dump_artifacts(cfg, figure, tagged, series);
  return 0;
}

}  // namespace hgr::bench
