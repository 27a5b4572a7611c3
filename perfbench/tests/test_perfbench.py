"""Tests of the benchmark's own helpers and of BENCHMARK.json.

Run from the repository root:

    python3 -m unittest perfbench/tests/test_perfbench.py

Builds perfbench/ under .bench_build/ (as run.py does), runs the C++ helper
tests (tail-percentile rule, Poisson schedule determinism, metric-name rule)
and checks that BENCHMARK.json lists exactly the metrics every workload
prints, under the contract's naming rules.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_target(target):
    cmd = ["cmake", "--build", run.BUILD_DIR, "-j",
           str(len(os.sched_getaffinity(0))), "--target", target]
    if not os.path.exists(os.path.join(run.BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", run.BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return os.path.join(run.BUILD_DIR, target)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def test_cpp_helpers(self):
        """Tail rule, schedule determinism and name rule (tests/selftest.cc)."""
        done = subprocess.run([build_target("perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_benchmark_lists_every_printed_metric(self):
        done = subprocess.run([build_target("perfbench"), "--list-metrics"],
                              capture_output=True, text=True, check=True)
        printed = json.loads(done.stdout)
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"]: m["unit"] for m in self.spec[kind]}
            prints = {m["name"]: m["unit"] for m in printed[kind]}
            self.assertEqual(listed, prints, kind)

    def test_metric_and_workload_names(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertNotRegex("_leading", NAME)
        self.assertNotRegex("has space", NAME)
        self.assertNotRegex("x" * 65, NAME)

    def test_benchmark_json_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["serve-metr-la", "train-pems04"])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        for part in spec["command"]:
            self.assertFalse(part.startswith("/") or ".." in part, part)


if __name__ == "__main__":
    unittest.main()
