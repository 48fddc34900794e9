#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 ypmbench/test_bench.py

Checks the declared names and units, that every declared metric is emitted
with its unit in both modes, that a tiny-scale run of each workload passes
its correctness checks, and runs the fixture tests of the traced-run
analysis (ypmbench_tests). Builds the benchmark on first use.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    return json.loads(path.read_text())


BENCH = load(ROOT / "BENCHMARK.json")
LAYER_MAP = load(HERE / "layer_map.json")
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None, out.stderr


class Declaration(unittest.TestCase):
    def test_names_and_units(self):
        names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in BENCH["end_to_end"]])

    def test_layer_map_covers_per_layer(self):
        mapped = [l["metric"] for l in LAYER_MAP["layers"]]
        self.assertEqual(mapped, [m["name"] for m in BENCH["per_layer"]])
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        for layer in LAYER_MAP["layers"]:
            for move in layer["moves"]:
                self.assertIn(move["end_to_end"], e2e)
                self.assertIn(move["workload"], WORKLOADS)
            for w in layer["unchanged_on"]:
                self.assertIn(w, WORKLOADS)


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace, declared):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, BENCH["end_to_end"])

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, BENCH["per_layer"])

    def test_trace_analysis_fixtures(self):
        run("fig3_flow", 0)  # builds the package, ypmbench_tests included
        out = subprocess.run([str(ROOT / ".bench_build" / "ypmbench" / "ypmbench_tests")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_usage_errors_exit_nonzero(self):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nope",
                              "--seed", "1"], cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse(out.stdout.strip())


if __name__ == "__main__":
    unittest.main()
