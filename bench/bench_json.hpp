// hgr-bench-v1: the machine-readable bench output schema.
//
// Every bench binary that takes --json=FILE emits one JSON document:
//   {"schema":"hgr-bench-v1","bench":"<binary>","dataset":...,
//    "config":{...},            // the sweep/trial configuration
//    "cells":[...]  or  "metrics":{...},   // figure cells / micro metrics
//    "trace":{...}}             // the full hgr-trace-v2 export, including
//                               // the "comm" telemetry section (per-rank
//                               // send/recv bytes, wait fractions)
// tools/bench_report.py aggregates these into BENCH_partition.json at the
// repo root and diffs runs. Field reference: docs/OBSERVABILITY.md.
#pragma once

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hgr::bench {

/// Count/mean/min/max over trial repetitions.
struct TrialStats {
  int n = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  static TrialStats of(const std::vector<double>& values) {
    TrialStats s;
    s.n = static_cast<int>(values.size());
    if (values.empty()) return s;
    s.min = s.max = values.front();
    double sum = 0.0;
    for (const double v : values) {
      sum += v;
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(s.n);
    return s;
  }

  std::string to_json() const {
    std::string out;
    obs::JsonWriter w(out);
    w.begin_object().key("n").i64(n).key("mean").num(mean);
    w.key("min").num(min).key("max").num(max).end_object();
    return out;
  }
};

/// Incremental hgr-bench-v1 document builder. Keys are appended in call
/// order; finish() attaches the accumulated obs trace (phases, counters,
/// comm telemetry) and seals the document.
class BenchJson {
 public:
  explicit BenchJson(const std::string& bench_name) {
    w_.begin_object().key("schema").str("hgr-bench-v1");
    w_.key("bench").str(bench_name);
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void add_string(const std::string& key, const std::string& value) {
    w_.key(key).str(value);
  }

  void add_number(const std::string& key, double value) {
    w_.key(key).num(value);
  }

  /// `json` must be a valid JSON value (object, array, number, ...).
  void add_raw(const std::string& key, const std::string& json) {
    w_.key(key).raw(json);
  }

  std::string finish() {
    add_raw("trace", obs::trace_to_json());
    w_.end_object();
    return out_;
  }

  bool write(const std::string& path) {
    std::ofstream f(path);
    if (!f) return false;
    f << finish() << '\n';
    return static_cast<bool>(f);
  }

 private:
  std::string out_;
  obs::JsonWriter w_{out_};
};

}  // namespace hgr::bench
