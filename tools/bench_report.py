#!/usr/bin/env python3
"""Aggregate hgr-bench-v1 JSON documents into BENCH_partition.json.

Bench binaries emit one hgr-bench-v1 document each (bench/bench_json.hpp;
micro_partition --json=FILE, fig benches --json=FILE). This script folds a
set of them into one report at the repo root and diffs key timing metrics
against the previous report, flagging regressions above a threshold.

Usage:
  tools/bench_report.py RUN1.json [RUN2.json ...] [--out BENCH_partition.json]
                        [--check] [--threshold 0.25]

  --out        report path (default: BENCH_partition.json next to the
               repo root, i.e. the parent of this script's directory)
  --check      warn-only mode for CI: print WARN lines for regressions but
               always exit 0 (perf smoke must not gate merges on a noisy
               container)
  --threshold  relative slowdown that counts as a regression (default 0.25)

Without --check, the exit status is the number of regressions found.

Report schema ("hgr-bench-report-v1"): an "entries" map keyed by
"<bench>/<dataset>", each holding the source document's config, metrics or
cells, and a "comm" summary (per-rank send/recv byte totals, wait
fractions, send-byte imbalance) pulled from the embedded trace. A "diff"
section lists per-entry metric deltas vs. the previous report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPORT_SCHEMA = "hgr-bench-report-v1"

# Metrics diffed between runs: (json path in entry, lower-is-better).
# End-to-end seconds (epochs, serve latency, set-up) are hgrbench's
# (hgrbench/README.md); this list keeps what hgrbench cannot measure.
TRACKED = [
    ("metrics.counter_bump_ns", True),
    ("metrics.cached_counter_bump_ns", True),
    # Observability v3: histogram hot path, total instrumentation overhead,
    # comm-latency tail, and critical-path wait fraction (micro_partition).
    ("metrics.histogram_record_ns", True),
    ("metrics.obs_overhead_pct", True),
    ("metrics.comm_latency_p99_ns", True),
    ("metrics.epoch_wait_frac", True),
    # micro_comm (flat-buffer collectives; absent from partition runs).
    ("metrics.alltoallv_small_p4_ns_per_call", True),
    ("metrics.alltoallv_large_p4_ns_per_call", True),
    ("metrics.allgather_large_p4_ns_per_call", True),
    ("metrics.allreduce_p4_ns_per_call", True),
    # micro_incremental (O(delta) fast path vs full V-cycle).
    ("metrics.full_seconds.mean", True),
    ("metrics.incremental_seconds.mean", True),
    ("metrics.incremental_speedup.mean", False),
]


def lookup(obj, dotted):
    for part in dotted.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def comm_summary(doc):
    """Per-rank traffic/wait summary from the embedded trace, if present."""
    comm = lookup(doc, "trace.comm")
    if not comm:
        return None
    ranks = comm.get("ranks", [])
    return {
        "num_ranks": comm.get("num_ranks", 0),
        "send_byte_imbalance": comm.get("send_byte_imbalance", 0.0),
        "max_wait_fraction": comm.get("max_wait_fraction", 0.0),
        "per_rank": [
            {
                "rank": r.get("rank"),
                "bytes_sent": r.get("bytes_sent", 0),
                "bytes_recv": r.get("bytes_recv", 0),
                "wait_fraction": r.get("wait_fraction", 0.0),
            }
            for r in ranks
        ],
    }


def build_report(run_paths):
    entries = {}
    for path in run_paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "hgr-bench-v1":
            print(f"WARN {path}: not an hgr-bench-v1 document, skipped",
                  file=sys.stderr)
            continue
        key = f"{doc.get('bench', 'unknown')}/{doc.get('dataset', 'unknown')}"
        entry = {
            "bench": doc.get("bench"),
            "dataset": doc.get("dataset"),
            "config": doc.get("config", {}),
        }
        if "metrics" in doc:
            entry["metrics"] = doc["metrics"]
        if "cells" in doc:
            entry["cells"] = doc["cells"]
        comm = comm_summary(doc)
        if comm is not None:
            entry["comm"] = comm
        counters = lookup(doc, "trace.counters")
        if counters:
            entry["counters"] = {
                k: v for k, v in counters.items()
                if k.startswith(("comm.", "epoch."))
            }
        entries[key] = entry
    return {"schema": REPORT_SCHEMA, "entries": entries}


def diff_reports(old, new, threshold):
    """Regression list + per-entry deltas of tracked metrics."""
    regressions = []
    deltas = {}
    for key, entry in new["entries"].items():
        prev = old.get("entries", {}).get(key)
        if prev is None:
            continue
        entry_deltas = {}
        for dotted, lower_better in TRACKED:
            was = lookup(prev, dotted)
            now = lookup(entry, dotted)
            if not isinstance(was, (int, float)) or not isinstance(
                    now, (int, float)) or was <= 0:
                continue
            rel = (now - was) / was
            entry_deltas[dotted] = {"was": was, "now": now, "rel": rel}
            worse = rel > threshold if lower_better else rel < -threshold
            if worse:
                regressions.append(
                    f"{key} {dotted}: {was:.6g} -> {now:.6g} "
                    f"({rel * 100.0:+.1f}%)")
        if entry_deltas:
            deltas[key] = entry_deltas
    return regressions, deltas


def main(argv):
    parser = argparse.ArgumentParser(
        description="aggregate hgr-bench-v1 JSON into BENCH_partition.json")
    parser.add_argument("runs", nargs="+", help="hgr-bench-v1 JSON files")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent /
                    "BENCH_partition.json"))
    parser.add_argument("--check", action="store_true",
                        help="warn-only: report regressions, exit 0")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown counted as regression")
    args = parser.parse_args(argv)

    report = build_report(args.runs)
    if not report["entries"]:
        print("error: no usable hgr-bench-v1 inputs", file=sys.stderr)
        return 2

    out_path = Path(args.out)
    previous = None
    if out_path.exists():
        try:
            with open(out_path) as f:
                previous = json.load(f)
        except (OSError, json.JSONDecodeError):
            print(f"WARN could not read previous report {out_path}",
                  file=sys.stderr)

    regressions = []
    if previous and previous.get("schema") == REPORT_SCHEMA:
        regressions, deltas = diff_reports(previous, report, args.threshold)
        if deltas:
            report["diff"] = {"vs": str(out_path), "metrics": deltas}

    with open(out_path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path} ({len(report['entries'])} entries)")

    for line in regressions:
        print(f"WARN regression: {line}", file=sys.stderr)
    if args.check:
        return 0
    return len(regressions)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
