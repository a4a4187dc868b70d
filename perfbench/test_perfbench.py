#!/usr/bin/env python3
"""Tests of the benchmark itself, on shrunken inputs (about a minute).

    python3 perfbench/test_perfbench.py

They check that a clean run reports every metric BENCHMARK.json names and
no failures, that a wrong expected answer is reported as a failure on every
workload, and that a directory without the engine sources is refused.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seconds", "1", "--sf", "0.01", "--flights-rows", "100000",
         "--rounds", "2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra, cwd=ROOT, trace="0"):
    p = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--trace", trace]
        + SMALL + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p


class PerfbenchTest(unittest.TestCase):
    def test_answer_comparison(self):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--selftest"], cwd=ROOT, capture_output=True,
                           text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_clean_runs_report_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                code, result, p = run(w["name"], trace=trace)
                self.assertEqual(code, 0, p.stderr)
                self.assertTrue(result["correct"], p.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in SPEC[key]},
                                 (w["name"], trace))
                for m in SPEC[key]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_wrong_expected_answer_is_reported(self):
        for w in SPEC["workloads"]:
            code, result, p = run(w["name"], "--corrupt-expected")
            self.assertEqual(code, 0, p.stderr)
            self.assertFalse(result["correct"], w["name"])
            self.assertGreater(result["failed"], 0, w["name"])
            self.assertIn("wrong answer", p.stderr)

    def test_refuses_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("tpch_warm", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
