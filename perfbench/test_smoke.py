#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark.

Every workload runs at a tiny size (--smoke), untraced and traced, and the
tests check the result schema against BENCHMARK.json, the correctness gates,
the sized-tail rule in the full report, repeatability of the deterministic
outputs, and that the benchmark refuses to run without the repository
sources. Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join(HERE, "run.py")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


def result_of(done):
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def report_of(workload, seed, trace):
    path = os.path.join(build_dir(), "runs",
                        f"report-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        # serve_stream is not in BENCHMARK.json (see README) but stays runnable.
        names = [w["name"] for w in cls.spec["workloads"]] + ["serve_stream"]
        cls.runs = {}
        for name in names:
            for trace in (0, 1):
                cls.runs[(name, trace)] = bench(name, trace)

    def test_schema_and_gates(self):
        for (workload, trace), done in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                res = result_of(done)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(res["correct"], True)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                want = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(res["metrics"]), {m["name"] for m in want})
                for m in want:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(set(got), {"value", "unit"})
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertTrue(math.isfinite(got["value"]))
                    if not trace:
                        self.assertGreater(got["value"], 0.0, m["name"])

    def test_host_block_and_thread_budget(self):
        for (workload, trace), done in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                report = report_of(workload, 1, trace)
                for key in ("cpu", "nproc", "isa", "compiler", "build_type"):
                    self.assertIn(key, report["host"])
                self.assertEqual(report["run"]["seed"], 1)
                budget = re.search(r"busy=(\d+)", report["run"]["threads"])
                self.assertLessEqual(int(budget.group(1)), report["host"]["nproc"])

    def test_tails_follow_the_sample_rule(self):
        # The reported percentile is the highest with >= 10 samples beyond.
        ladder = [0.999, 0.99, 0.9, 0.8, 0.75, 0.5]
        for (workload, trace), _ in self.runs.items():
            report = report_of(workload, 1, trace)
            for m in report["metrics"]:
                match = re.match(r"p(\d+(?:\.\d+)?)\b", m["statistic"])
                if not match or m["samples"] == 0 or m["statistic"].startswith("p50"):
                    continue
                with self.subTest(workload=workload, metric=m["name"]):
                    q = float(match.group(1)) / 100.0
                    n = m["samples"]
                    self.assertGreaterEqual(n * (1 - q), 10 - 1e-9)
                    higher = [p for p in ladder if p > q]
                    if higher:
                        self.assertLess(n * (1 - min(higher)), 10)

    def test_light_rate_answers_repeat(self):
        digest = re.compile(r"digest ([0-9a-f]{16})")
        first = digest.search(self.runs[("serve_stream", 0)].stdout).group(1)
        traced = digest.search(self.runs[("serve_stream", 1)].stdout).group(1)
        again = digest.search(bench("serve_stream", 0).stdout).group(1)
        self.assertEqual(first, again)
        self.assertEqual(first, traced)

    def test_fixed_seed_accuracy_repeats(self):
        for workload in ("train_epoch", "city_16k"):
            with self.subTest(workload=workload):
                a = result_of(self.runs[(workload, 0)])["metrics"]["forecast_mae"]
                b = result_of(bench(workload, 0))["metrics"]["forecast_mae"]
                self.assertEqual(a["value"], b["value"])

    def test_refuses_without_sources(self):
        bare = os.path.join(build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "serve_hot",
               "--seed", "1", "--seconds", "2", "--trace", "0"]
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180,
                              check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
