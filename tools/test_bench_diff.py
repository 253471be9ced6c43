#!/usr/bin/env python3
"""Self-test of tools/bench_diff.py on the fixtures beside it.

    python3 tools/test_bench_diff.py

The fixtures hold three rows:
  - BM_E9_SimpleWorkload/1, five repetitions a side whose medians differ by
    more than the 1.10 threshold while the quartile ranges overlap (the
    spread two runs of the same code showed on a 4-vCPU VM): not flagged;
  - BM_DisjointRegression, a 2x slowdown whose quartile ranges are
    disjoint: flagged;
  - BM_SingleRun, one repetition a side: the plain ratio test flags it.
"""

import os
import subprocess
import sys
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TOOLS, "bench_diff_fixtures")
BASELINE = os.path.join(FIXTURES, "baseline.json")
FRESH = os.path.join(FIXTURES, "fresh.json")


def bench_diff(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "bench_diff.py"), *args],
        capture_output=True, text=True, timeout=60)
    rows = {line.split()[0]: line for line in done.stdout.splitlines()
            if line.startswith("BM_")}
    return done.returncode, rows


class BenchDiffTest(unittest.TestCase):
    def test_overlapping_spread_is_not_a_regression(self):
        code, rows = bench_diff(BASELINE, FRESH)
        row = rows["BM_E9_SimpleWorkload/1"]
        self.assertNotIn("REGRESSION", row)
        self.assertIn("within spread", row)
        # Both sides' quartiles are printed.
        self.assertIn("(6.95s-8.05s)", row)
        self.assertIn("(7.7s-8.4s)", row)

    def test_disjoint_regression_is_flagged(self):
        code, rows = bench_diff(BASELINE, FRESH)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", rows["BM_DisjointRegression"])

    def test_single_repetition_keeps_the_ratio_test(self):
        _, rows = bench_diff(BASELINE, FRESH)
        self.assertIn("REGRESSION", rows["BM_SingleRun"])
        _, loose = bench_diff(BASELINE, FRESH, "--threshold", "1.25")
        self.assertNotIn("REGRESSION", loose["BM_SingleRun"])

    def test_a_baseline_against_itself_passes(self):
        code, rows = bench_diff(BASELINE, BASELINE)
        self.assertEqual(code, 0)
        self.assertEqual(len(rows), 3)


if __name__ == "__main__":
    unittest.main()
