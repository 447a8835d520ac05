#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py exit-status contract.

The script guards BENCH_BASELINE.json in CI; the contract under test:

  * exit 0 when every gated metric equals its baseline;
  * exit 0 on any drift of a gated metric in report-only mode, exit 1
    with --strict (only .cycles/.bytes/.exact metrics gate, at zero
    tolerance);
  * exit 2 whenever a baseline metric is missing from the run, strict or
    not -- a silently vanished metric means a bench section stopped
    running or was renamed without regenerating the baseline, and
    report-only mode must not hide that.

Run via ctest (registered in tests/CMakeLists.txt) or directly; the
script path comes from $CHECK_SCRIPT, defaulting to the in-tree layout.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.environ.get(
    "CHECK_SCRIPT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                 "tools", "check_bench_regression.py"))


def run_check(baseline, current, *flags):
    """Writes the two dicts to temp files and runs the checker on them."""
    with tempfile.TemporaryDirectory() as d:
        bpath = os.path.join(d, "baseline.json")
        cpath = os.path.join(d, "current.json")
        with open(bpath, "w") as f:
            json.dump(baseline, f)
        with open(cpath, "w") as f:
            json.dump(current, f)
        proc = subprocess.run(
            [sys.executable, SCRIPT, bpath, cpath, *flags],
            capture_output=True, text=True)
    return proc


BASE = {
    "bench.a.cycles": 1000,
    "bench.a.overhead_pct": 5.0,
    "bench.b.bytes": 512,
    "bench.d.identical.exact": 1.0,
}


class CheckBenchRegressionTest(unittest.TestCase):
    def test_identical_run_passes(self):
        p = run_check(BASE, dict(BASE), "--strict")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("equal the baseline", p.stdout)

    def test_any_cycles_or_bytes_drift_fails_strict(self):
        for metric, value in (("bench.a.cycles", 1001), ("bench.b.bytes", 511)):
            cur = dict(BASE, **{metric: value})
            p = run_check(BASE, cur, "--strict")
            self.assertEqual(p.returncode, 1, metric + p.stdout + p.stderr)
            self.assertIn(metric, p.stdout)

    def test_regression_reports_but_passes_without_strict(self):
        cur = dict(BASE, **{"bench.a.cycles": 2000})
        p = run_check(BASE, cur)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("REGRESSION", p.stdout)

    def test_regression_fails_with_strict(self):
        cur = dict(BASE, **{"bench.a.cycles": 2000})
        p = run_check(BASE, cur, "--strict")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)

    def test_derived_metric_drift_never_gates(self):
        cur = dict(BASE, **{"bench.a.overhead_pct": 50.0})
        p = run_check(BASE, cur, "--strict")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_new_metric_passes(self):
        cur = dict(BASE, **{"bench.c.cycles": 7})
        p = run_check(BASE, cur, "--strict")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("(new)", p.stdout)

    def test_missing_metric_fails_without_strict(self):
        cur = dict(BASE)
        del cur["bench.b.bytes"]
        p = run_check(BASE, cur)
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertIn("MISSING", p.stdout)
        self.assertIn("bench.b.bytes", p.stdout)

    def test_missing_metric_fails_with_strict(self):
        cur = dict(BASE)
        del cur["bench.a.cycles"]
        p = run_check(BASE, cur, "--strict")
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)

    def test_missing_derived_metric_also_fails(self):
        # Coverage loss gates even for metrics whose *values* never gate.
        cur = dict(BASE)
        del cur["bench.a.overhead_pct"]
        p = run_check(BASE, cur)
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)

    def test_exact_metric_gates_with_zero_tolerance(self):
        # Any drift at all on a .exact metric is a regression.
        cur = dict(BASE, **{"bench.d.identical.exact": 0.0})
        p = run_check(BASE, cur)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("REGRESSION", p.stdout)
        p = run_check(BASE, cur, "--strict")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)

    def test_tolerance_flag_is_gone(self):
        # No drift is allowed, so there is no tolerance to set: the flag
        # is a usage error like any unknown option.
        p = run_check(BASE, dict(BASE), "--strict", "--tolerance", "20")
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertIn("unrecognized arguments", p.stderr)


if __name__ == "__main__":
    unittest.main()
