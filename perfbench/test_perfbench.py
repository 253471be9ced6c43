#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then checks that the answer checker
rejects a flipped verdict and a wrong known answer (both in its unit
self-test and end to end, where the run must exit non-zero), that inputs
and fixed counts repeat for one seed, that a short run of each workload
prints every metric BENCHMARK.json names with its unit, that the traced
run writes Chrome trace-event JSON with one lane per connection or worker,
that serve-skewed keeps the properties its predictions rely on under other
popularity laws and rankings, and that the benchmark refuses to run without
the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed=3, trace=0, passes=2, fault=None, extra=(), cwd=ROOT):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--passes", str(passes)]
    if fault:
        command += ["--fault", fault]
    command += list(extra)
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def fixed_counts(lines):
    return [l for l in lines if l.startswith("fixed counts, first pass")]


class PerfbenchTest(unittest.TestCase):
    def test_selftest(self):
        run("batch-portfolio", passes=1)  # builds the benchmark
        done = subprocess.run([os.path.join(BUILD, "gqc_perfbench"), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_every_workload_prints_every_metric(self):
        wanted = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(sorted(metrics),
                                     sorted(m["name"] for m in wanted[trace]))
                    for m in wanted[trace]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    if trace == 0:
                        for m in wanted[0]:
                            self.assertGreater(metrics[m["name"]]["value"], 0,
                                               m["name"])
                        self.assertTrue(any(l.startswith("latency: ") and
                                            "samples beyond" in l for l in lines))
                    else:
                        self.assertTrue(any(l.startswith("split per request")
                                            for l in lines))
                        path = os.path.join(BUILD, "trace-%s-3.json" % workload)
                        events = json.load(open(path))["traceEvents"]
                        lanes = {e["tid"] for e in events if e["ph"] == "X"}
                        self.assertGreaterEqual(len(lanes), 2)

    def test_fixed_counts_repeat_for_one_seed(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                _, first, a = run(workload, seed=5, passes=1)
                _, second, b = run(workload, seed=5, passes=1)
                self.assertEqual(fixed_counts(first), fixed_counts(second))
                self.assertEqual(a["metrics"]["decided_share"],
                                 b["metrics"]["decided_share"])

    def test_skewed_purpose_holds_under_other_popularity(self):
        # The predictions for serve-skewed rely on these, not on the chosen
        # Zipf exponent or ranking: every measured request repeats a
        # question, some repeats still miss the query-context cache, and
        # nothing is evicted or raced.
        for extra in ([], ["--zipf", "0.6"], ["--zipf", "1.0"],
                      ["--ranking", "2"]):
            with self.subTest(extra=extra):
                code, lines, result = run("serve-skewed", trace=1, passes=2,
                                          extra=extra)
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertIn("purpose: repeat_share=1.0000 "
                              "evictions_per_kreq=0.000", lines)
                self.assertGreater(metrics["engine.repeat_miss_ratio"], 0)
                self.assertEqual(metrics["core.race_waste_ratio"], 0)

    def test_flipped_verdict_fails_the_run(self):
        for workload in ("serve-skewed", "batch-portfolio"):
            with self.subTest(workload=workload):
                code, lines, result = run(workload, passes=2, fault="flip")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertTrue(any("flipped" in l for l in lines))

    def test_wrong_known_answer_fails_the_run(self):
        code, lines, result = run("serve-skewed", passes=1, fault="wrong-known")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertTrue(any("known answer" in l for l in lines))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "serve-skewed", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
