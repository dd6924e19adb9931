"""Tests of the hgr benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m unittest discover -s hgrbench/tests -v

The first test to run builds the driver (about a minute); the rest take a
few seconds each.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "hgrbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "2", "--scale", "0.05"]


def run(workload, trace, *extra, seed=3):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--trace", str(trace), *TINY, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class SmokeTest(unittest.TestCase):
    """Every workload emits every named metric, in both modes."""

    def check(self, workload, trace, section):
        rc, result, err = run(workload, trace)
        self.assertEqual(rc, 0, err)
        self.assertTrue(result["correct"], err)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in SPEC[section]:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        if section == "end_to_end":
            for name, got in result["metrics"].items():
                self.assertGreater(got["value"], 0, name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace, section)

    def test_same_seed_same_costs(self):
        _, a, _ = run("churn-ranks", 0)
        _, b, _ = run("churn-ranks", 0)
        for name in ("total_cost", "cut_ratio"):
            self.assertEqual(a["metrics"][name], b["metrics"][name])


class LayerTest(unittest.TestCase):
    """Layers are loaded where the README's map says, and idle elsewhere."""

    @classmethod
    def setUpClass(cls):
        cls.m = {}
        for w in ("amr-weights", "churn-ranks", "serve-tenants"):
            rc, result, err = run(w, 1)
            assert rc == 0, err
            cls.m[w] = {k: v["value"] for k, v in result["metrics"].items()}

    def test_incremental_only_on_serve(self):
        self.assertEqual(self.m["amr-weights"]["incremental.attempts"], 0)
        self.assertGreater(self.m["serve-tenants"]["incremental.attempts"], 0)
        self.assertGreater(self.m["serve-tenants"]["gain_cache.moves"], 0)

    def test_comm_only_on_churn(self):
        comm = [m["name"] for m in SPEC["per_layer"]
                if m["name"].startswith(("comm.", "parallel."))]
        for w in ("amr-weights", "serve-tenants"):
            for name in comm:
                self.assertEqual(self.m[w][name], 0, (w, name))
        self.assertGreater(self.m["churn-ranks"]["comm.allgather.count"], 0)
        self.assertGreater(self.m["churn-ranks"]["parallel.coarsen_cpu_s"], 0)

    def test_partitioner_on_epoch_workloads(self):
        for w in ("amr-weights", "churn-ranks"):
            self.assertGreater(self.m[w]["repartitioner.repart_s"], 0, w)
            self.assertGreater(self.m[w]["partition.coarsen_s"], 0, w)
            self.assertGreater(self.m[w]["workload.next_epoch_s"], 0, w)
        self.assertGreater(self.m["serve-tenants"]["serve.batches"], 0)


class NegativeTest(unittest.TestCase):
    """A corrupted partition or cost is caught, counted and fails the run."""

    def test_corrupt_partition(self):
        rc, result, err = run("amr-weights", 0, "--corrupt", "partition")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("vertex 0 in part", err)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_corrupt_cost(self):
        rc, result, err = run("churn-ranks", 0, "--corrupt", "cost")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("cost identity", err)

    def test_missing_sources(self):
        # A tree holding only the benchmark must fail without a result.
        import shutil
        import tempfile
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            shutil.copytree(ROOT / "hgrbench", Path(tmp) / "hgrbench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "hgrbench/run.py", "--workload",
                 "amr-weights", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
