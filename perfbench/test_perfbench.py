#!/usr/bin/env python3
"""Self-tests of the benchmark: BENCHMARK.json's shape, a tiny-scale smoke
run of every workload in both modes, and the refusal to run outside the
repository.

Run from the repository root:  python3 perfbench/test_perfbench.py
(the first run builds seedb_perfbench into .bench_build/).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900)
    return proc


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"][:2], ["python3", RUN])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = set()
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.add(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], names)
            names.add(m["name"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         setup[0]["bound"])


class SmokeTest(unittest.TestCase):
    """Every workload, both modes, at tiny scale: correct, no failures,
    exactly the metrics BENCHMARK.json lists, and a `why` line that states
    the rate and latency limit seedb_perfbench actually uses."""

    def check(self, workload, trace):
        spec = load_spec()
        proc = run_smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        why = next(w["why"] for w in spec["workloads"]
                   if w["name"] == workload)
        config = next(l for l in lines if l.startswith("workload: "))
        slo = re.search(r"slo_ms=(\S+)", config).group(1)
        self.assertIn(f"SLO {slo} ms", why)
        rate = re.search(r"rate_per_s=(\S+)", config).group(1)
        if rate != "0":
            self.assertIn(f"Poisson {rate}/s", why)
        if trace:
            # The benchmark's own trace and the program's.
            self.assertEqual(sum(": validate_trace: OK" in l for l in lines),
                             2, proc.stdout)


def add_smoke_tests():
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            name = f"test_{w['name'].replace('-', '_')}_trace{trace}"
            setattr(SmokeTest, name,
                    lambda self, w=w["name"], t=trace: self.check(w, t))


add_smoke_tests()


class OutsideRepositoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"))
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", "adhoc-exact", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
