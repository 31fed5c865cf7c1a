#!/usr/bin/env python3
"""Self-test of the xpc benchmark. Run from the repository root:

    python3 -m unittest discover -s xpcbench/tests -v

It builds the benchmark (through run.py) if needed, then runs every workload
on a tiny corpus and checks that
  * the result line is well formed and names exactly the metrics
    BENCHMARK.json declares (end-to-end untraced, per-layer traced), and the
    human-readable table prints every end-to-end metric with its unit;
  * a deliberately wrong answer fed to the checker makes failed_ratio
    non-zero and the run exit non-zero;
  * a traced replay whose answer differs from the Session's fails the
    traced run, so stage times cannot describe a path the program no longer
    takes;
  * a stored seed-1 verdict that differs from the program's answer fails
    the run;
  * without the library sources the benchmark fails without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ["cold_solve", "warm_session", "schema_solve", "stream_route"]
TINY = ["--seconds", "1", "--scale", "0.05", "--seed", "3"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args):
    p = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True, cwd=ROOT,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, p.stdout, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


class MetricNames(unittest.TestCase):
    def check(self, trace, section):
        want = {m["name"]: m["unit"] for m in spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, out, result = run_bench("--workload", workload, "--trace", trace, *TINY)
                self.assertEqual(rc, 0, out)
                self.assertIsNotNone(result, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(want))
                for name, unit in want.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                if trace == "0":
                    for name, unit in want.items():
                        self.assertRegex(out, r"\n  %s +\S+ %s " % (re.escape(name), re.escape(unit)))
                    self.assertRegex(out, r"\n  failed_ratio +0 ratio ")

    def test_end_to_end_metrics_printed(self):
        self.check("0", "end_to_end")

    def test_per_layer_metrics_printed(self):
        self.check("1", "per_layer")


class WrongVerdict(unittest.TestCase):
    def test_checker_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, out, result = run_bench("--workload", workload, "--trace", "0",
                                            "--inject-wrong-verdict", *TINY)
                self.assertNotEqual(rc, 0, out)
                self.assertIsNotNone(result, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                ratio = float(re.search(r"\n  failed_ratio +(\S+) ratio", out).group(1))
                self.assertGreater(ratio, 0)


class ReplayMismatch(unittest.TestCase):
    def test_replay_disagreeing_with_session_fails_the_traced_run(self):
        for workload in ["cold_solve", "warm_session", "schema_solve"]:
            with self.subTest(workload=workload):
                rc, out, result = run_bench("--workload", workload, "--trace", "1",
                                            "--inject-replay-mismatch", *TINY)
                self.assertNotEqual(rc, 0, out)
                self.assertIsNotNone(result, out)
                self.assertFalse(result["correct"])
                self.assertIn("no longer mirrors the dispatch", out)


class DigestDrift(unittest.TestCase):
    def test_changed_stored_verdict_fails(self):
        with open(os.path.join(BENCH, "verdicts-seed1.txt")) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("cold_solve/verdicts "):
                key, codes = line.split(" ")
                flip = {"S": "U", "U": "S", "C": "N", "N": "C"}
                at = next(k for k, c in enumerate(codes) if c in flip)
                lines[i] = key + " " + codes[:at] + flip[codes[at]] + codes[at + 1:]
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
            f.write("\n".join(lines) + "\n")
        try:
            rc, out, result = run_bench("--workload", "cold_solve", "--trace", "0", "--seed", "1",
                                        "--seconds", "1", "--digest-file", f.name)
        finally:
            os.unlink(f.name)
        self.assertNotEqual(rc, 0, out)
        self.assertFalse(result["correct"])
        self.assertIn("stored verdict", out)


class MissingSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "xpcbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            p = subprocess.run([sys.executable, "xpcbench/run.py", "--workload", "cold_solve",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               capture_output=True, text=True, cwd=tmp, env=env, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
