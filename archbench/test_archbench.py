#!/usr/bin/env python3
"""The benchmark's own tests, run at reduced size (--small).

    python3 archbench/test_archbench.py

Builds the benchmark through run.py if needed, then checks that every metric
BENCHMARK.json names is emitted with its unit, that the seed changes the
inputs but not the verdict of the checks, that a wrong digest pin counts as
failed repetitions, and that the benchmark refuses to run without src/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seed=1, trace=0, cwd=ROOT):
    """Runs one small invocation; returns (exit code, detail line, result)."""
    cmd = [sys.executable, os.path.join(cwd, "archbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        return p.returncode, None, None
    return p.returncode, json.loads(lines[-2])["archbench"], json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, _, result = run(w, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, result = run(w)
                for name, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, name)


class ChecksTest(unittest.TestCase):
    def test_seed_changes_inputs_but_not_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, d1, r1 = run(w, seed=1)
                _, d2, r2 = run(w, seed=2)
                self.assertNotEqual(d1["input_digest"], d2["input_digest"])
                self.assertTrue(d1["pinned"])
                self.assertFalse(d2["pinned"])
                for r in (r1, r2):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 2)

    def test_wrong_pin_counts_every_repetition_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, r = run(w, "--wrong-pin")
                self.assertEqual(code, 0)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["attempted"], 2)
                self.assertEqual(r["failed"], r["attempted"])

    def test_provenance_is_recorded(self):
        _, detail, _ = run(WORKLOADS[0])
        prov = detail["provenance"]
        self.assertEqual(prov["build_type"], "Release")
        self.assertTrue(prov["compiler"])
        self.assertGreaterEqual(prov["nproc"], 1)
        self.assertTrue(prov["commit"])
        self.assertEqual(detail["seed"], 1)


class StandaloneTest(unittest.TestCase):
    def test_refuses_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path))
            p = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
