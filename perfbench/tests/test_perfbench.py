#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs every workload on tiny inputs, untraced and traced, and checks that
the result line names every metric of BENCHMARK.json with its unit, that
the correctness checks passed, and that the traced run wrote its span
dump; then builds and runs the unit tests of the benchmark's arithmetic.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py's own build-directory rule)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_tiny(workload, trace, cpus=None):
    """A tiny run, on the CPUs `cpus` when given (the others when not)."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                          "--seconds", "1.5", "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600, preexec_fn=pin)
    lines = out.stdout.strip().splitlines()
    return out.returncode, out.stdout, json.loads(lines[-1]) if lines else None


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, stdout, result = run_tiny(workload, trace)
        self.assertEqual(code, 0, stdout[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout[-2000:])
        self.assertEqual(result["failed"], 0, stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return stdout

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced_runs_print_every_layer_metric_and_spans(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                stdout = self.check(workload, 1)
                self.assertIn("self.reader.query_s", stdout)
                dump = os.path.join(run.build_dir(ROOT), "results",
                                    f"trace-{workload}-seed3.json")
                with open(dump) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(spans)
                self.assertTrue(all(len(s) == 6 for s in spans))

    def test_threads_stay_within_the_cpus(self):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            self.skipTest("needs 2 CPUs")
        for workload, writers in (("archive-stock", 0), ("stream-dirty", 1), ("shard-fanout", 1)):
            with self.subTest(workload=workload):
                code, stdout, _ = run_tiny(workload, 0, set(cpus[:2]))
                self.assertEqual(code, 0, stdout[-2000:])
                context = json.loads(next(line for line in stdout.splitlines()
                                          if line.startswith("context "))[len("context "):])
                self.assertEqual(context["nproc"], 2)
                self.assertLessEqual(writers + context["readers"] + context["pool_threads"], 2)
        code, stdout, _ = run_tiny("stream-dirty", 0, set(cpus[:1]))
        self.assertEqual(code, 2)
        self.assertEqual(stdout, "")

    def test_refuses_to_run_without_engine_sources(self):
        bare = os.path.join(run.build_dir(ROOT), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "archive-stock",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_rejects_bad_arguments(self):
        out = subprocess.run([sys.executable, RUN, "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class Arithmetic(unittest.TestCase):
    def test_unit_tests_pass(self):
        out = run.build_dir(ROOT)
        run.build(ROOT, out)
        built = subprocess.run(["cmake", "--build", out, "--target", "perfbench_math_test"],
                               capture_output=True, text=True)
        if built.returncode != 0:
            self.skipTest("GoogleTest not available: " + built.stdout[-300:])
        tests = subprocess.run([os.path.join(out, "perfbench_math_test")],
                               capture_output=True, text=True)
        self.assertEqual(tests.returncode, 0, tests.stdout[-2000:])


if __name__ == "__main__":
    unittest.main()
