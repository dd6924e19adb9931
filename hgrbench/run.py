#!/usr/bin/env python3
"""Build the hgr benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 hgrbench/run.py --workload amr-weights --seed 1 --seconds 30 --trace 0

The driver (hgrbench.cpp) is built with CMake into $CARGO_TARGET_DIR/hgrbench
(default .bench_build/hgrbench) the first time, and incrementally after that.
Build output goes to stderr; the last line of stdout is the driver's JSON
result: {"correct", "attempted", "failed", "metrics"}. Any further flag
(--scale, --corrupt) is passed to the driver unchanged. The exit status is
the driver's: nonzero on any failed output check, and nonzero without a
result when the sources are missing.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("amr-weights", "churn-ranks", "serve-tenants")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "hgrbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: library sources not found under {ROOT / 'src'}")
        return None
    if not (out / "build.ninja").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-G", "Ninja",
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("error: cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "hgrbench"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("error: build failed")
        return None
    return out / "hgrbench"


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    binary = build(build_dir())
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {args.workload} ran longer than {RUN_TIMEOUT_S}s")
        return 3
    result = parse_result(proc.stdout)
    if result is None:
        log(proc.stdout)
        log(f"error: no result line (exit status {proc.returncode})")
        return proc.returncode or 4
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
