#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Run from the repository root (builds the benchmark on first use, takes
a few minutes):

    python3 perfbench/test_perfbench.py

Checks that bad input fails with exit 2 and names the fault, that a
corrupted device answer is counted as failed, and that the model
fingerprint and every modelled end-to-end metric are identical with one
pool thread and with the default thread count.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]


def bench(*args, threads=None):
    env = dict(os.environ)
    env.pop("AQUOMAN_THREADS", None)
    if threads is not None:
        env["AQUOMAN_THREADS"] = str(threads)
    p = subprocess.run(RUN + list(args), capture_output=True, text=True,
                       env=env)
    return p


def result(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def run(workload, trace, threads=None, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), *extra, threads=threads)


class BadInput(unittest.TestCase):
    def expect_exit2(self, args, fault, threads=None):
        p = bench(*args, threads=threads)
        self.assertEqual(p.returncode, 2, p.stderr)
        self.assertIn(fault, p.stderr)
        self.assertNotIn('"correct"', p.stdout)

    def test_unknown_workload(self):
        self.expect_exit2(["--workload", "tpch23", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          "unknown workload 'tpch23'")

    def test_non_numeric_seed(self):
        self.expect_exit2(["--workload", "tpch22", "--seed", "x1",
                           "--seconds", "1", "--trace", "0"],
                          "--seed must be a non-negative integer")

    def test_missing_seed(self):
        self.expect_exit2(["--workload", "tpch22", "--seconds", "1",
                           "--trace", "0"], "missing --seed")

    def test_bad_thread_count(self):
        self.expect_exit2(["--workload", "tpch22", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          "AQUOMAN_THREADS must be a positive integer",
                          threads="four")


class Checker(unittest.TestCase):
    def test_corrupted_cell_counts_as_failed(self):
        p = run("service_light", 0, None, "--corrupt-answer")
        self.assertEqual(p.returncode, 1, p.stderr)
        r = result(p)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertIn("device answer differs from the host engine",
                      p.stderr)

    def test_clean_run_is_correct(self):
        p = run("service_light", 0)
        self.assertEqual(p.returncode, 0, p.stderr)
        r = result(p)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)


class ThreadCountDeterminism(unittest.TestCase):
    def compare(self, workload, trace, names):
        serial = result(run(workload, trace, 1))
        pooled = result(run(workload, trace))
        self.assertTrue(serial["correct"] and pooled["correct"])
        if trace:
            self.assertEqual(serial["metrics"]["common.threads"]["value"], 1)
        for name in names:
            self.assertEqual(serial["metrics"][name]["value"],
                             pooled["metrics"][name]["value"], name)

    def test_fingerprint_tpch22(self):
        self.compare("tpch22", 1, ["model.fingerprint"])

    def test_fingerprint_service_overload(self):
        self.compare("service_overload", 1, ["model.fingerprint"])

    def test_modelled_metrics_service_overload(self):
        self.compare("service_overload", 0,
                     ["modelled_goodput_qps", "modelled_interactive_p99_s",
                      "modelled_slo_attainment"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
